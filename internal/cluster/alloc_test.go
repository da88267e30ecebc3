package cluster

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"esrp/internal/hostobs"
	"esrp/internal/replay"
)

// collectiveWindowAllocs runs `rounds` steady-state rounds of
// Allreduce + AllreduceScalar + Barrier on n nodes after a fixed warm-up and
// returns the global malloc count over the window. Rank 0 reads the counter
// while the other nodes are blocked at a barrier, so the window covers
// exactly the steady-state collectives of all nodes. st, when not nil, is
// attached as host telemetry.
func collectiveWindowAllocs(t *testing.T, n, rounds int, st *hostobs.BarrierStats) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	c := New(n, testModel())
	c.ObserveHost(st)
	var allocs uint64
	err := c.Run(func(nd *Node) {
		x := []float64{1, 2, 3}
		for i := 0; i < 16; i++ { // warm the slot banks and scheduler
			nd.Allreduce(OpSum, x)
			nd.Allreduce(OpMax, nil)
		}
		var m1, m2 runtime.MemStats
		nd.Allreduce(OpMax, nil)
		if nd.Rank() == 0 {
			runtime.ReadMemStats(&m1)
		}
		nd.Allreduce(OpMax, nil)
		for i := 0; i < rounds; i++ {
			nd.Allreduce(OpSum, x)
			nd.AllreduceScalar(OpMax, float64(i))
			nd.Allreduce(OpMax, nil)
		}
		nd.Allreduce(OpMax, nil)
		if nd.Rank() == 0 {
			runtime.ReadMemStats(&m2)
			allocs = m2.Mallocs - m1.Mallocs
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return allocs
}

// TestAllreduceSteadyStateZeroAlloc gates the collective arena: after the
// warm-up calls have sized the slot banks, Allreduce/AllreduceScalar/Barrier
// must not touch the heap. The Go runtime itself may allocate a small
// *constant* amount beside the ranks (per-P cache refills, the test's own
// bookkeeping), so the gate measures marginally: a real per-call allocation
// separates a 400-round window from a 6400-round window 6000-fold, constant
// runtime noise cancels. The 128-node case is the oversubscribed shape: each
// round is 3 × 127 yields and resumptions and the last arriver folds for
// all; its windows are shorter to keep the gate quick.
func TestAllreduceSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; gate runs in the non-race job")
	}
	for _, tc := range []struct{ n, short, long int }{{8, 400, 6400}, {128, 100, 1100}} {
		if marginal := marginalCollectiveAllocs(t, tc.n, tc.short, tc.long, nil); marginal > 0.02 {
			t.Fatalf("n=%d: steady-state collectives allocate %.3f times per round (windows of %d and %d; want ~0)",
				tc.n, marginal, tc.short, tc.long)
		}
	}
}

func marginalCollectiveAllocs(t *testing.T, n, short, long int, st *hostobs.BarrierStats) float64 {
	a, b := collectiveWindowAllocs(t, n, short, st), collectiveWindowAllocs(t, n, long, st)
	return (float64(b) - float64(a)) / float64(long-short)
}

// TestBarrierUninstrumentedAllocFree pins the other half of the
// zero-overhead-when-off contract of host telemetry: switched on, a
// collective phase still does not allocate (its wait histograms and counters
// are fixed-size atomics). Switched off is the gate above.
func TestBarrierUninstrumentedAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; gate runs in the non-race job")
	}
	if marginal := marginalCollectiveAllocs(t, 8, 400, 6400, hostobs.NewBarrierStats(8)); marginal > 0.02 {
		t.Fatalf("instrumented collectives allocate %.3f times per round, want ~0", marginal)
	}
}

// p2pWindowAllocs runs `rounds` steady-state Send/Recv/Release exchanges
// after warming the destination's free list and returns the global malloc
// count over the window.
func p2pWindowAllocs(t *testing.T, rounds int) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	c := New(2, testModel())
	var allocs uint64
	err := c.Run(func(nd *Node) {
		payload := make([]float64, 32)
		exchange := func() {
			if nd.Rank() == 0 {
				nd.Send(1, 7, payload)
			} else {
				nd.Release(nd.Recv(0, 7))
			}
		}
		for i := 0; i < 16; i++ { // warm the destination's free list
			exchange()
			nd.Allreduce(OpMax, nil)
		}
		var m1, m2 runtime.MemStats
		nd.Allreduce(OpMax, nil)
		if nd.Rank() == 0 {
			runtime.ReadMemStats(&m1)
		}
		nd.Allreduce(OpMax, nil)
		for i := 0; i < rounds; i++ {
			exchange()
			nd.Allreduce(OpMax, nil) // bound sender run-ahead: in-flight stays ≤ 1 buffer
		}
		nd.Allreduce(OpMax, nil)
		if nd.Rank() == 0 {
			runtime.ReadMemStats(&m2)
			allocs = m2.Mallocs - m1.Mallocs
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return allocs
}

// TestP2PSteadyStateZeroAlloc gates the point-to-point free list: once the
// receiver recycles payload buffers with Release, a steady Send/Recv stream
// must not allocate. Measured marginally between a 400- and a 6400-exchange
// window so constant runtime noise cancels (see the collective gate above).
func TestP2PSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; gate runs in the non-race job")
	}
	short := p2pWindowAllocs(t, 400)
	long := p2pWindowAllocs(t, 6400)
	marginal := (float64(long) - float64(short)) / 6000
	if marginal > 0.02 {
		t.Fatalf("steady-state P2P stream allocates %.3f times per exchange (windows: %d over 400, %d over 6400; want ~0)",
			marginal, short, long)
	}
}

// TestCollectiveHammer drives the shared-memory collectives hard from all
// nodes — mixed Allreduce/Bcast/Gather/Barrier on the root view and on
// freshly derived (arena-sharing) sub-views, with P2P traffic interleaved.
// Primarily a data-race trap: `go test -race` runs it with the race detector
// watching the arena's slot banks, arrival counter and phase word, and the
// inboxes.
func TestCollectiveHammer(t *testing.T) {
	const n = 9
	c := New(n, testModel())
	evens := []int{0, 2, 4, 6, 8}
	err := c.Run(func(nd *Node) {
		buf := make([]float64, 5)
		for round := 0; round < 300; round++ {
			for i := range buf {
				buf[i] = float64(nd.Rank()*1000 + round + i)
			}
			nd.Allreduce(OpSum, buf)
			wantHead := float64(n*(n-1)/2*1000 + n*round) // Σ ranks·1000 + n·round
			if buf[0] != wantHead {
				panic(fmt.Sprintf("round %d: allreduce head %v, want %v", round, buf[0], wantHead))
			}
			if s := nd.AllreduceScalar(OpMax, float64(nd.Rank())); s != float64(n-1) {
				panic(fmt.Sprintf("round %d: max %v", round, s))
			}

			// P2P ring traffic between collectives.
			next, prev := (nd.Rank()+1)%n, (nd.Rank()+n-1)%n
			nd.ISend(next, 42, buf[:2])
			req := nd.IRecv(prev, 42)
			nd.Compute(replay.WorkVec, 100)
			nd.Release(req.Wait())

			data := []float64{float64(round), 0}
			root := round % n
			if nd.Rank() == root {
				data[1] = float64(root)
			}
			nd.Bcast(root, data)
			if data[1] != float64(root) {
				panic(fmt.Sprintf("round %d: bcast got %v", round, data))
			}

			if parts := nd.Gather(root, data); nd.Rank() == root {
				if len(parts) != n || parts[n-1][0] != float64(round) {
					panic(fmt.Sprintf("round %d: gather got %v", round, parts))
				}
			}

			// Sub-communicator collectives every few rounds: the even ranks
			// share one arena (looked up by rank set, so all rounds reuse it).
			if round%5 == 0 && nd.Rank()%2 == 0 {
				sub := nd.Sub(evens)
				v := sub.AllreduceScalar(OpSum, 1)
				if v != float64(len(evens)) {
					panic(fmt.Sprintf("round %d: sub allreduce %v", round, v))
				}
				sub.Allreduce(OpMax, nil)
			}
			nd.Allreduce(OpMax, nil)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunAllocBudget pins what a whole Comm costs — New plus a Run of one
// ring halo round and one allreduce — where it is spent. A rank coroutine
// costs eleven allocations (iter.Pull, go1.24) that a rank goroutine did not;
// they are paid for by what the goroutine-per-rank machinery allocated: a
// channel pair per (sender, receiver), a struct and two slices per endpoint,
// the barrier's tree, park cells and wake channels, a Node and a closure per
// rank. The budgets are the parent commit's counts for the same body (85 and
// 1 949 at any GOMAXPROCS); this tree measures 63–73 and 1 551–1 592.
func TestRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; gate runs in the non-race job")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	payload := make([]float64, 64) // read-only, shared by all ranks
	measure := func(n int) uint64 {
		var m1, m2 runtime.MemStats
		runtime.ReadMemStats(&m1)
		err := New(n, testModel()).Run(func(nd *Node) {
			next, prev := (nd.Rank()+1)%n, (nd.Rank()+n-1)%n
			nd.ISend(next, 3, payload)
			nd.ISend(prev, 3, payload)
			fromPrev, fromNext := nd.IRecv(prev, 3), nd.IRecv(next, 3)
			nd.Release(fromPrev.Wait())
			nd.Release(fromNext.Wait())
			x := [2]float64{1, float64(nd.Rank())}
			nd.Allreduce(OpSum, x[:])
		})
		runtime.ReadMemStats(&m2)
		if err != nil {
			t.Fatal(err)
		}
		return m2.Mallocs - m1.Mallocs
	}
	for _, tc := range []struct {
		n      int
		budget uint64
	}{{4, 85}, {128, 1949}} {
		measure(tc.n) // warm whatever the runtime allocates once per process
		if got := measure(tc.n); got > tc.budget {
			t.Errorf("n=%d: New + Run allocate %d times, more than the %d of the goroutine-per-rank cluster", tc.n, got, tc.budget)
		}
	}
}
