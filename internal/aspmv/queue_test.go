package aspmv

import (
	"testing"
	"testing/quick"
)

func mkCopy(iter int) ReceivedCopy {
	return ReceivedCopy{Iter: iter, Idx: []int{iter}, Val: []float64{float64(iter)}}
}

// iters returns the iteration numbers of the held copies, oldest first.
func iters(q *Queue) []int {
	it := make([]int, len(q.slots))
	for i, c := range q.slots {
		it[i] = c.Iter
	}
	return it
}

func TestQueuePushEvicts(t *testing.T) {
	q := NewQueue(3)
	for i := 0; i < 5; i++ {
		q.Push(mkCopy(i))
	}
	if len(q.slots) != 3 {
		t.Fatalf("%d copies held, want 3", len(q.slots))
	}
	its := iters(q)
	if its[0] != 2 || its[1] != 3 || its[2] != 4 {
		t.Fatalf("Iters = %v, want [2 3 4]", its)
	}
	if q.Get(1) != nil {
		t.Fatal("evicted copy must be gone")
	}
	if c := q.Get(3); c == nil || c.Val[0] != 3 {
		t.Fatal("Get(3) wrong")
	}
}

func TestQueueDepthValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("depth 0 must panic")
		}
	}()
	NewQueue(0)
}

func TestLatestPairSuccessive(t *testing.T) {
	q := NewQueue(3)
	if _, _, ok := q.LatestPair(); ok {
		t.Fatal("empty queue has no pair")
	}
	q.Push(mkCopy(10))
	if _, _, ok := q.LatestPair(); ok {
		t.Fatal("single copy has no pair")
	}
	q.Push(mkCopy(11))
	prev, cur, ok := q.LatestPair()
	if !ok || prev.Iter != 10 || cur.Iter != 11 {
		t.Fatalf("pair = %v %v %v", prev, cur, ok)
	}
	// Push a non-successive copy (start of the next storage stage): the
	// previous stage's pair must still be found — the Fig. 1 scenario that
	// motivates queue depth 3.
	q.Push(mkCopy(20))
	prev, cur, ok = q.LatestPair()
	if !ok || prev.Iter != 10 || cur.Iter != 11 {
		t.Fatalf("after stage-1 push: pair = %v %v %v, want (10,11)", prev, cur, ok)
	}
	// Completing the stage replaces the usable pair.
	q.Push(mkCopy(21))
	prev, cur, ok = q.LatestPair()
	if !ok || prev.Iter != 20 || cur.Iter != 21 {
		t.Fatalf("after stage-2 push: pair = (%d,%d), want (20,21)", prev.Iter, cur.Iter)
	}
}

// With depth 2, the mid-stage failure scenario loses the recoverable pair —
// the design reason the paper requires depth 3 for ESRP.
func TestDepthTwoLosesPairMidStage(t *testing.T) {
	q2, q3 := NewQueue(2), NewQueue(3)
	for _, it := range []int{10, 11, 20} { // stage (10,11) complete, stage 20 half done
		q2.Push(mkCopy(it))
		q3.Push(mkCopy(it))
	}
	if _, _, ok := q2.LatestPair(); ok {
		t.Fatal("depth 2 should have lost the (10,11) pair")
	}
	if _, _, ok := q3.LatestPair(); !ok {
		t.Fatal("depth 3 must still hold the (10,11) pair")
	}
}

// Reproduces the queue timeline of Fig. 1 of the paper for T = 5.
func TestQueueTimelineFigure1(t *testing.T) {
	T := 5
	q := NewQueue(3)
	recoverableAt := func() (int, bool) {
		_, cur, ok := q.LatestPair()
		if !ok {
			return 0, false
		}
		return cur.Iter, true
	}
	for j := 0; j <= 2*T+2; j++ {
		isStorage := (j%T == 0 || (j-1)%T == 0) && j > 2
		if isStorage {
			q.Push(mkCopy(j))
		}
		wantOK := false
		wantIter := 0
		switch {
		case j < T+1: // before the first stage completes: unrecoverable
		case j < 2*T+1: // first stage complete: recover T+1
			wantOK, wantIter = true, T+1
		default: // second stage complete: recover 2T+1
			wantOK, wantIter = true, 2*T+1
		}
		it, ok := recoverableAt()
		if ok != wantOK || (ok && it != wantIter) {
			t.Fatalf("j=%d: recoverable=(%d,%v), want (%d,%v)", j, it, ok, wantIter, wantOK)
		}
	}
}

func TestQueueReset(t *testing.T) {
	q := NewQueue(2)
	q.Push(mkCopy(1))
	q.Reset()
	if len(q.slots) != 0 {
		t.Fatal("Reset must empty the queue")
	}
	if q.depth != 2 {
		t.Fatal("Reset must keep the depth")
	}
}

// Property: after any push sequence, at most depth copies are held and they
// are the most recent pushes in order.
func TestQueueProperty(t *testing.T) {
	f := func(pushed []int, depthSeed uint8) bool {
		depth := 1 + int(depthSeed%4)
		q := NewQueue(depth)
		for _, it := range pushed {
			q.Push(mkCopy(it))
		}
		if len(q.slots) > depth || len(q.slots) > len(pushed) {
			return false
		}
		got := iters(q)
		start := len(pushed) - len(got)
		for k, it := range got {
			if it != pushed[start+k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
