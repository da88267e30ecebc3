package campaign

import (
	"sync"

	"esrp/internal/hostobs"
)

// This file is the scheduling half of the campaign engine. Run enumerates
// the grid (the deterministic cell order is the report contract) and hands
// the cell indices to a schedule; the executor workers in Run drain it.
// Scheduling policy lives here, solving stays in runCell — results always
// land at their cell index, so the report bytes are identical however the
// schedule plays out.
//
// Policy: affinity-aware sharding with bounded work stealing. Cells that
// share a Prepared context (same prepKey: matrix, nodes, φ-augmentation)
// are queued contiguously on one shard, so one worker solves them
// back-to-back — the context's partition/plan/factorization stay hot in
// cache and the worker's Workspace keeps the right vector shapes, instead
// of ping-ponging between contexts. Shards drain independently (no shared
// dispatch channel); when a worker's own shard runs dry it steals a bounded
// chunk from the tail of the fullest remaining shard, so a skewed grid
// (one huge matrix next to toy ones) cannot leave workers idle behind a
// serialized dispenser.

// stealChunk bounds how many cells one steal transfers. Small enough that
// a nearly-drained campaign spreads its tail across all workers, large
// enough that a thief amortizes the scan over several cells of the same
// affinity run (stolen tails are contiguous grid order, usually one key).
const stealChunk = 8

// schedule is a set of per-worker cell queues. rec, when non-nil, receives
// steal telemetry (attempts, successes, cells moved, steal spans); the
// own-shard pop path is untouched by it, so the hot path of a telemetry-off
// run is byte-for-byte the old one.
type schedule struct {
	shards []shard
	rec    *hostobs.CampaignRecorder
}

// shard is one worker's queue of cell indices. The owner pops at head —
// preserving the affinity-batched order the scheduler laid out — and
// thieves take from the tail, so a victim keeps the prefix it is already
// working through.
type shard struct {
	mu    sync.Mutex
	queue []int
	head  int
}

// pop takes the next index owned by this shard.
func (sh *shard) pop() (int, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.head >= len(sh.queue) {
		return 0, false
	}
	i := sh.queue[sh.head]
	sh.head++
	return i, true
}

// remaining reports the queued-but-unclaimed cell count.
func (sh *shard) remaining() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.queue) - sh.head
}

// stealTail removes and returns up to chunk indices from the tail, at most
// half the remainder (rounded up) so the victim is never fully drained by
// a single thief while it still works the head.
func (sh *shard) stealTail(chunk int) []int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	avail := len(sh.queue) - sh.head
	if avail <= 0 {
		return nil
	}
	k := (avail + 1) / 2
	if k > chunk {
		k = chunk
	}
	stolen := append([]int(nil), sh.queue[len(sh.queue)-k:]...)
	sh.queue = sh.queue[:len(sh.queue)-k]
	return stolen
}

// push appends stolen indices to the shard's own queue.
func (sh *shard) push(idx []int) {
	if len(idx) == 0 {
		return
	}
	sh.mu.Lock()
	sh.queue = append(sh.queue, idx...)
	sh.mu.Unlock()
}

// newSchedule lays the cells out over nw shards. Affinity batches — maximal
// runs of cell indices sharing a prepKey, in grid order — are assigned whole
// to the least-loaded shard at that point (ties to the lowest shard), a
// deterministic LPT-style packing: workers start on disjoint contexts and
// only the steals, if any, mix them.
func newSchedule(cells []Cell, nw int) *schedule {
	s := &schedule{shards: make([]shard, nw)}
	var batch []int
	var batchKey prepKey
	flush := func() {
		if len(batch) == 0 {
			return
		}
		best := 0
		for j := 1; j < nw; j++ {
			if len(s.shards[j].queue) < len(s.shards[best].queue) {
				best = j
			}
		}
		s.shards[best].queue = append(s.shards[best].queue, batch...)
		batch = batch[:0]
	}
	for i := range cells {
		key := prepKeyOf(&cells[i])
		if len(batch) > 0 && key != batchKey {
			flush()
		}
		batchKey = key
		batch = append(batch, i)
	}
	flush()
	return s
}

// next returns the next cell index for worker me: its own shard first, then
// a bounded steal from the fullest other shard (the surplus joins me's own
// queue). It returns false only when every shard is drained.
func (s *schedule) next(me int) (int, bool) {
	own := &s.shards[me]
	if i, ok := own.pop(); ok {
		return i, true
	}
	wl := s.rec.Worker(me) // nil handle when telemetry is off
	for {
		victim, best := -1, 0
		for j := range s.shards {
			if j == me {
				continue
			}
			if r := s.shards[j].remaining(); r > best {
				victim, best = j, r
			}
		}
		if victim < 0 {
			return 0, false
		}
		t0 := wl.Clock()
		wl.StealAttempt()
		stolen := s.shards[victim].stealTail(stealChunk)
		if len(stolen) == 0 {
			continue // lost the race to the victim's owner; rescan
		}
		own.push(stolen[1:])
		wl.Steal(t0, len(stolen))
		return stolen[0], true
	}
}
