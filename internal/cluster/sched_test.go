package cluster

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// atProcs runs f once per GOMAXPROCS value: 1 is a single worker, 2 and 4
// put the ranks of one run on workers that genuinely run in parallel (and, on
// a smaller host, on workers that compete for its cores).
func atProcs(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t)
		})
	}
}

// checkNoGoroutineLeft fails the test unless the goroutine count returns to
// before: an unfinished rank coroutine pins a goroutine for the life of the
// process. The workers a Run started may take a moment to exit after it
// returned, hence the short grace period.
func checkNoGoroutineLeft(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before Run, %d after", before, after)
	}
}

// TestBarrierPhases drives one view's arrival counter and phase word over
// thousands of phases and member counts that split evenly and raggedly over
// the workers, checking the release ordering contract: every write a member
// performs before a collective is visible to every member after it.
func TestBarrierPhases(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 16, 17, 33} {
		t.Run(fmt.Sprintf("n-%d", n), func(t *testing.T) {
			atProcs(t, func(t *testing.T) {
				var counter atomic.Int64
				const phases = 2000
				err := New(n, testModel()).Run(func(nd *Node) {
					for p := 0; p < phases; p++ {
						counter.Add(1)
						nd.Allreduce(OpMax, nil)
						// All n arrivals of phase p happened before any
						// release; racing ahead only adds more.
						if got := counter.Load(); got < int64((p+1)*n) {
							panic(fmt.Sprintf("member %d phase %d: counter %d < %d", nd.Rank(), p, got, (p+1)*n))
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// TestBarrierAbortUnparks blocks every rank but one — in a receive, inside a
// root-view collective, inside a sub-view collective, on the failing rank's
// worker and on others — then lets the last one panic. Run must return that
// panic (the first error, not what the unwinding ranks raise afterwards),
// every blocked rank must unwind through its deferred calls, and no
// coroutine may be left behind.
func TestBarrierAbortUnparks(t *testing.T) {
	const n = 9
	blocked := map[string]func(nd *Node){
		"recv":       func(nd *Node) { nd.Recv((nd.Rank()+1)%n, 5) },
		"collective": func(nd *Node) { nd.Allreduce(OpMax, nil) },
		"sub-view": func(nd *Node) {
			// Everyone but the failing rank and rank 0, which the others
			// then wait for in vain.
			if sub := nd.Sub([]int{0, 1, 2, 3, 4, 5, 6, 7}); nd.Rank() != 0 {
				sub.AllreduceScalar(OpSum, 1)
			} else {
				nd.Recv(n-1, 5)
			}
		},
	}
	for name, wait := range blocked {
		t.Run(name, func(t *testing.T) {
			atProcs(t, func(t *testing.T) {
				before := runtime.NumGoroutine()
				var blocking, unwound atomic.Int32
				err := New(n, testModel()).Run(func(nd *Node) {
					if nd.Rank() == n-1 {
						// The last rank of the last worker: its own worker's
						// other ranks have blocked already, the other workers'
						// are about to.
						for blocking.Load() < n-1 {
							runtime.Gosched()
						}
						panic("boom")
					}
					defer func() {
						if recover() != nil {
							unwound.Add(1)
							panic("raised while unwinding") // must not replace the first error
						}
					}()
					blocking.Add(1)
					wait(nd)
				})
				if err == nil || !strings.Contains(err.Error(), "node 8 panicked: boom") {
					t.Fatalf("err = %v, want node 8's panic", err)
				}
				if got := unwound.Load(); got != n-1 {
					t.Errorf("%d ranks unwound through their deferred calls, want %d", got, n-1)
				}
				checkNoGoroutineLeft(t, before)
			})
		})
	}
}

// TestDeadlockIsAnError: a protocol in which every unfinished rank waits for
// something no rank will do returns an error that names each wait — at once
// on one worker, and as soon as all workers agree on several — instead of
// hanging or polling forever.
func TestDeadlockIsAnError(t *testing.T) {
	cases := []struct {
		name string
		n    int
		body func(nd *Node)
		want string
	}{
		{"recv-from-finished", 2, func(nd *Node) {
			if nd.Rank() == 0 {
				nd.Recv(1, 3)
			}
		}, "cluster: deadlock: rank 0 waits recv(src 1, tag 3); rank 1 finished"},
		{"skipped-collective", 3, func(nd *Node) {
			nd.Allreduce(OpMax, nil)
			if nd.Rank() != 2 {
				nd.Allreduce(OpMax, nil)
			}
		}, "cluster: deadlock: rank 0 waits collective 1 of the root view; rank 1 waits collective 1 of the root view; rank 2 finished"},
		{"sub-view-member-missing", 4, func(nd *Node) {
			if sub := nd.Sub([]int{0, 1, 2}); sub != nil && nd.Rank() != 2 {
				sub.Allreduce(OpMax, nil)
			}
		}, "cluster: deadlock: rank 0 waits collective 0 of view [0 1 2]; rank 1 waits collective 0 of view [0 1 2]; rank 2 finished; rank 3 finished"},
		{"recv-cycle-after-traffic", 4, func(nd *Node) {
			next, prev := (nd.Rank()+1)%4, (nd.Rank()+3)%4
			for i := 0; i < 100; i++ {
				nd.ISend(next, 7, []float64{1})
				nd.Release(nd.Recv(prev, 7))
				nd.Allreduce(OpMax, nil)
			}
			nd.Recv(next, 8) // everyone receives, nobody sends
		}, "cluster: deadlock: rank 0 waits recv(src 1, tag 8); rank 1 waits recv(src 2, tag 8); rank 2 waits recv(src 3, tag 8); rank 3 waits recv(src 0, tag 8)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			atProcs(t, func(t *testing.T) {
				before := runtime.NumGoroutine()
				start := time.Now()
				err := New(tc.n, testModel()).Run(tc.body)
				if err == nil || err.Error() != tc.want {
					t.Fatalf("err = %v\nwant  %s", err, tc.want)
				}
				if d := time.Since(start); d > time.Second {
					t.Errorf("deadlock reported after %v, want well under a second", d)
				}
				checkNoGoroutineLeft(t, before)
			})
		})
	}
}

// TestBarrierHammer exercises the full collective stack in the three shapes
// a run can have: many ranks on one worker, many ranks on several workers,
// and one rank per worker (n ≤ GOMAXPROCS), where a worker whose rank is
// blocked has nothing else to run and polls. Primarily a -race trap for the
// arrival counter, the phase word and the slot banks.
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

					nd.Allreduce(OpMax, nil)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConcurrentRunsShareTheHost runs several Comms at once — a campaign's
// cells — so that their workers outnumber the Ps: every run must complete
// with the right answer (workers that wait for a descheduled worker yield
// their P instead of polling it away), and the in-flight count that sizes
// them must return to zero.
func TestConcurrentRunsShareTheHost(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const runs, n = 6, 12
	errs := make(chan error, runs)
	for r := 0; r < runs; r++ {
		go func() {
			errs <- New(n, testModel()).Run(func(nd *Node) {
				for round := 0; round < 200; round++ {
					nd.ISend((nd.Rank()+1)%n, 1, []float64{float64(round)})
					nd.Release(nd.Recv((nd.Rank()+n-1)%n, 1))
					if got := nd.AllreduceScalar(OpSum, 1); got != n {
						panic(fmt.Sprintf("round %d: allreduce %v", round, got))
					}
				}
			})
		}()
	}
	for r := 0; r < runs; r++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if got := running.Load(); got != 0 {
		t.Errorf("%d runs still counted in flight", got)
	}
}
