package cluster

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBarrierPhases drives the combining-tree barrier directly over many
// phases and member counts, checking the release ordering contract: every
// write a member performs before await(p) is visible to every member after
// await(p). The tree shapes covered include a single leaf (n ≤ 4), a
// two-level tree, ragged last nodes, and a three-level tree.
func TestBarrierPhases(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 16, 17, 33} {
		t.Run(fmt.Sprintf("n-%d", n), func(t *testing.T) {
			b := newBarrier(n, nil)
			var counter atomic.Int64
			const phases = 200
			var wg sync.WaitGroup
			for me := 0; me < n; me++ {
				wg.Add(1)
				go func(me int) {
					defer wg.Done()
					for p := 0; p < phases; p++ {
						counter.Add(1)
						b.await(me)
						// All n arrivals of phase p happened before any
						// release; racing ahead only adds more.
						if got := counter.Load(); got < int64((p+1)*n) {
							t.Errorf("member %d phase %d: counter %d < %d", me, p, got, (p+1)*n)
							return
						}
					}
				}(me)
			}
			wg.Wait()
		})
	}
}

// TestBarrierAbortUnparks parks all but one member, aborts, and requires
// every waiter to unwind with the abort panic — the teardown path that keeps
// a failed run from deadlocking on a member that will never arrive. It also
// pins that await after abort panics immediately.
func TestBarrierAbortUnparks(t *testing.T) {
	const n = 5
	b := newBarrier(n, nil)
	var aborted atomic.Int32
	var wg sync.WaitGroup
	for me := 0; me < n-1; me++ { // member n-1 never arrives
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			defer func() {
				if _, ok := recover().(abortedError); ok {
					aborted.Add(1)
				}
			}()
			b.await(me)
		}(me)
	}
	time.Sleep(20 * time.Millisecond) // let the waiters spin down and park
	b.abort()
	wg.Wait()
	if got := aborted.Load(); got != n-1 {
		t.Fatalf("%d members unwound with the abort panic, want %d", got, n-1)
	}
	func() {
		defer func() {
			if _, ok := recover().(abortedError); !ok {
				t.Error("await after abort did not panic with abortedError")
			}
		}()
		b.await(n - 1)
	}()
}

// TestBarrierHammer exercises the full collective stack under both waiting
// regimes of the barrier: ranks ≫ GOMAXPROCS (the park-at-once
// oversubscription policy every large simulated cluster hits) and ranks ≤
// GOMAXPROCS (the bounded-spin path). GOMAXPROCS is set before New because
// the barrier chooses its spin budget at construction. Primarily a -race
// trap for the arrival tree, the park/wake protocol and the slot banks.
func TestBarrierHammer(t *testing.T) {
	cases := []struct {
		name  string
		procs int
		n     int
	}{
		{"oversubscribed-1proc", 1, 33},
		{"oversubscribed-4proc", 4, 33},
		{"spinning-4proc", 4, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prev := runtime.GOMAXPROCS(tc.procs)
			defer runtime.GOMAXPROCS(prev)
			n := tc.n
			c := New(n, testModel())
			err := c.Run(func(nd *Node) {
				buf := make([]float64, 3)
				for round := 0; round < 250; round++ {
					for i := range buf {
						buf[i] = float64(nd.Rank() + round + i)
					}
					nd.Allreduce(OpSum, buf)
					want := float64(n*(n-1)/2 + n*round) // Σ ranks + n·round
					if buf[0] != want {
						panic(fmt.Sprintf("round %d: allreduce head %v, want %v", round, buf[0], want))
					}

					root := round % n
					data := []float64{0}
					if nd.Rank() == root {
						data[0] = float64(round)
					}
					nd.Bcast(root, data)
					if data[0] != float64(round) {
						panic(fmt.Sprintf("round %d: bcast got %v", round, data))
					}

					nd.Barrier()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
