package aspmv

import "fmt"

// Queue is the fixed-depth redundancy queue of Section 3: each ASpMV pushes
// the node's ReceivedCopy for one iteration, releasing the oldest copy.
// ESR uses depth 2 (copies of two successive iterations are always present);
// ESRP needs depth 3 so that a failure occurring after only the first push
// of a storage stage still leaves two successive copies from the previous
// stage available (Fig. 1 of the paper).
type Queue struct {
	depth int
	slots []ReceivedCopy // oldest first; len ≤ depth
}

// NewQueue creates a queue with the given depth (≥ 1).
func NewQueue(depth int) *Queue {
	if depth < 1 {
		panic(fmt.Sprintf("aspmv: queue depth must be ≥ 1, got %d", depth))
	}
	return &Queue{depth: depth, slots: make([]ReceivedCopy, 0, depth)}
}

// Push inserts the copy as newest, dropping the oldest if full. The evicted
// copy (ok=true) is returned so callers can recycle its value buffer via
// Exchanger.Recycle.
func (q *Queue) Push(c ReceivedCopy) (evicted ReceivedCopy, ok bool) {
	if len(q.slots) == q.depth {
		evicted, ok = q.slots[0], true
		copy(q.slots, q.slots[1:])
		q.slots[q.depth-1] = c
		return evicted, ok
	}
	q.slots = append(q.slots, c)
	return ReceivedCopy{}, false
}

// ValBytes returns the bytes held in the queued copies' value buffers (the
// index layouts are plan-static and shared, so they are not counted).
func (q *Queue) ValBytes() int64 {
	var b int64
	for i := range q.slots {
		b += 8 * int64(len(q.slots[i].Val))
	}
	return b
}

// Get returns the copy for the given iteration, or nil.
func (q *Queue) Get(iter int) *ReceivedCopy {
	for i := range q.slots {
		if q.slots[i].Iter == iter {
			return &q.slots[i]
		}
	}
	return nil
}

// LatestPair returns the newest pair of copies with successive iteration
// numbers (j-1, j) — the reconstruction needs p′^(j-1) and p′^(j). It
// returns ok=false if no such pair exists yet (e.g. before the first storage
// stage completed, or when only the first half of a stage was pushed and no
// previous stage exists).
func (q *Queue) LatestPair() (prev, cur *ReceivedCopy, ok bool) {
	for i := len(q.slots) - 1; i >= 1; i-- {
		if q.slots[i].Iter == q.slots[i-1].Iter+1 {
			return &q.slots[i-1], &q.slots[i], true
		}
	}
	return nil, nil, false
}

// Reset drops all copies (used when the solver restarts from scratch),
// handing each one's value buffer to release, oldest first, so callers can
// recycle it via Exchanger.Recycle as they do an evicted copy's.
func (q *Queue) Reset(release func(val []float64)) {
	for i := range q.slots {
		release(q.slots[i].Val)
	}
	q.slots = q.slots[:0]
}
