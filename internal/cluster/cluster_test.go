package cluster

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"esrp/internal/replay"
)

func testModel() CostModel {
	return CostModel{FlopTime: 1e-9, Latency: 1e-6, BytePeriod: 1e-9, Overhead: 1e-7}
}

func TestRankSize(t *testing.T) {
	c := New(4, testModel())
	var seen [4]int32
	err := c.Run(func(nd *Node) {
		if nd.Size() != 4 {
			panic(fmt.Sprintf("Size = %d", nd.Size()))
		}
		atomic.AddInt32(&seen[nd.Rank()], 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, n := range seen {
		if n != 1 {
			t.Fatalf("rank %d ran %d times", r, n)
		}
	}
}

func TestSendRecv(t *testing.T) {
	c := New(2, testModel())
	err := c.Run(func(nd *Node) {
		if nd.Rank() == 0 {
			nd.Send(1, 7, []float64{1, 2, 3})
		} else {
			got := nd.Recv(0, 7)
			if len(got) != 3 || got[2] != 3 {
				panic(fmt.Sprintf("Recv got %v", got))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	c := New(2, testModel())
	err := c.Run(func(nd *Node) {
		if nd.Rank() == 0 {
			buf := []float64{42}
			nd.Send(1, 1, buf) // Send copies synchronously...
			buf[0] = 0         // ...so this mutation must not reach the receiver.
		} else {
			if got := nd.Recv(0, 1); got[0] != 42 {
				panic(fmt.Sprintf("payload mutated: %v", got))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendFIRecvFI(t *testing.T) {
	c := New(2, testModel())
	err := c.Run(func(nd *Node) {
		if nd.Rank() == 0 {
			nd.SendFI(1, 3, []float64{1.5}, []int{10, 20})
		} else {
			f, i := nd.RecvFI(0, 3)
			if f[0] != 1.5 || i[1] != 20 {
				panic(fmt.Sprintf("RecvFI got %v %v", f, i))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMismatchPanicsIntoError(t *testing.T) {
	c := New(2, testModel())
	err := c.Run(func(nd *Node) {
		if nd.Rank() == 0 {
			nd.Send(1, 1, nil)
		} else {
			nd.Recv(0, 2) // wrong tag
		}
	})
	if err == nil || !strings.Contains(err.Error(), "expected tag") {
		t.Fatalf("err = %v, want tag mismatch", err)
	}
}

func TestNodePanicPropagates(t *testing.T) {
	c := New(3, testModel())
	err := c.Run(func(nd *Node) {
		if nd.Rank() == 1 {
			panic("boom")
		}
		// Other nodes block on a message that never arrives; the abort must
		// unwind them.
		nd.Recv((nd.Rank()+1)%3, 5)
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestAllreduceSum(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16} {
		c := New(n, testModel())
		err := c.Run(func(nd *Node) {
			x := []float64{float64(nd.Rank()), 1}
			nd.Allreduce(OpSum, x)
			wantSum := float64(n*(n-1)) / 2
			if x[0] != wantSum || x[1] != float64(n) {
				panic(fmt.Sprintf("n=%d rank=%d allreduce got %v", n, nd.Rank(), x))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	c := New(4, testModel())
	err := c.Run(func(nd *Node) {
		if got := nd.AllreduceScalar(OpMax, float64(nd.Rank())); got != 3 {
			panic(fmt.Sprintf("max got %g", got))
		}
		if got := nd.AllreduceScalar(OpMin, float64(nd.Rank())); got != 0 {
			panic(fmt.Sprintf("min got %g", got))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceDeterministicOrder(t *testing.T) {
	// Floating-point sums depend on order; the contract is ascending rank
	// order at rank 0. Values chosen so that a different order changes the
	// result: x_s = 1e16 for rank 0, 1.0 otherwise.
	run := func() float64 {
		c := New(8, testModel())
		var out float64
		err := c.Run(func(nd *Node) {
			v := 1.0
			if nd.Rank() == 0 {
				v = 1e16
			}
			got := nd.AllreduceScalar(OpSum, v)
			if nd.Rank() == 0 {
				out = got
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("allreduce not deterministic: %g vs %g", got, first)
		}
	}
}

func TestBcast(t *testing.T) {
	c := New(5, testModel())
	err := c.Run(func(nd *Node) {
		data := make([]float64, 3)
		if nd.Rank() == 2 {
			data = []float64{7, 8, 9}
		}
		nd.Bcast(2, data)
		if data[0] != 7 || data[2] != 9 {
			panic(fmt.Sprintf("rank %d bcast got %v", nd.Rank(), data))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGather(t *testing.T) {
	c := New(4, testModel())
	err := c.Run(func(nd *Node) {
		parts := nd.Gather(0, []float64{float64(nd.Rank()), float64(nd.Rank() * 10)})
		if nd.Rank() == 0 {
			if len(parts) != 4 {
				panic("wrong part count")
			}
			for s, p := range parts {
				if p[0] != float64(s) || p[1] != float64(10*s) {
					panic(fmt.Sprintf("part %d = %v", s, p))
				}
			}
		} else if parts != nil {
			panic("non-root must get nil")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierCompletes(t *testing.T) {
	c := New(8, testModel())
	err := c.Run(func(nd *Node) {
		for i := 0; i < 10; i++ {
			nd.Allreduce(OpMax, nil)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSubCommunicator(t *testing.T) {
	c := New(6, testModel())
	err := c.Run(func(nd *Node) {
		sub := nd.Sub([]int{1, 3, 4})
		switch nd.GlobalRank() {
		case 1, 3, 4:
			if sub == nil {
				panic("member got nil sub")
			}
			if sub.Size() != 3 {
				panic(fmt.Sprintf("sub size %d", sub.Size()))
			}
			wantRank := map[int]int{1: 0, 3: 1, 4: 2}[nd.GlobalRank()]
			if sub.Rank() != wantRank {
				panic(fmt.Sprintf("sub rank %d, want %d", sub.Rank(), wantRank))
			}
			sum := sub.AllreduceScalar(OpSum, float64(nd.GlobalRank()))
			if sum != 8 {
				panic(fmt.Sprintf("sub allreduce %g, want 8", sum))
			}
			// Point-to-point within the sub view uses sub ranks.
			if sub.Rank() == 0 {
				sub.Send(2, 9, []float64{5})
			} else if sub.Rank() == 2 {
				if got := sub.Recv(0, 9); got[0] != 5 {
					panic("sub send/recv failed")
				}
			}
		default:
			if sub != nil {
				panic("non-member got non-nil sub")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSubSharesClock(t *testing.T) {
	c := New(4, testModel())
	err := c.Run(func(nd *Node) {
		sub := nd.Sub([]int{0, 1, 2, 3})
		sub.Compute(replay.WorkVec, 1e6)
		if nd.Clock() != sub.Clock() || nd.Clock() <= 0 {
			panic("sub must share the node clock")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSimulatedClockAdvances(t *testing.T) {
	m := testModel()
	c := New(2, m)
	err := c.Run(func(nd *Node) {
		if nd.Rank() == 0 {
			nd.Compute(replay.WorkVec, 1000)
			nd.Send(1, 1, make([]float64, 100))
		} else {
			nd.Recv(0, 1)
			// Arrival ≥ sender compute + latency + 800 bytes serialization.
			min := 1000*m.FlopTime + m.Latency + 800*m.BytePeriod
			if nd.Clock() < min {
				panic(fmt.Sprintf("receiver clock %g < %g", nd.Clock(), min))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.MaxClock() <= 0 {
		t.Fatal("MaxClock must be positive")
	}
}

func TestClockDeterminism(t *testing.T) {
	run := func() float64 {
		c := New(8, testModel())
		err := c.Run(func(nd *Node) {
			for i := 0; i < 20; i++ {
				nd.Compute(replay.WorkVec, float64(100*(nd.Rank()+1)))
				nd.AllreduceScalar(OpSum, 1)
				if nd.Rank() == 0 {
					nd.Send(7, 1, make([]float64, 10))
				}
				if nd.Rank() == 7 {
					nd.Recv(0, 1)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return c.MaxClock()
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("modeled time not deterministic: %g vs %g", got, first)
		}
	}
}

func TestCounters(t *testing.T) {
	c := New(2, testModel())
	err := c.Run(func(nd *Node) {
		if nd.Rank() == 0 {
			nd.Send(1, 1, make([]float64, 4)) // 32 bytes
		} else {
			nd.Recv(0, 1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.BytesSent() != 32 {
		t.Fatalf("BytesSent = %d, want 32", c.BytesSent())
	}
	if c.MsgsSent() != 1 {
		t.Fatalf("MsgsSent = %d, want 1", c.MsgsSent())
	}

	// The machine totals are the sum of what the nodes counted themselves,
	// over P2P, every collective's modeled star traffic, and a Sub view
	// (whose handle books against the same node).
	const n = 7
	c = New(n, testModel())
	var nodeBytes, nodeMsgs [n]int64
	err = c.Run(func(nd *Node) {
		sub := nd.Sub([]int{1, 2, 5})
		for round := 0; round < 3; round++ {
			nd.ISend((nd.Rank()+1)%n, 4, make([]float64, round+1))
			nd.Release(nd.Recv((nd.Rank()+n-1)%n, 4))
			nd.Allreduce(OpSum, make([]float64, 3))
			nd.Bcast(round, make([]float64, 2))
			nd.Gather(n-1-round, make([]float64, 1))
			if sub != nil {
				sub.AllreduceScalar(OpMax, 1)
				sub.Send((sub.Rank()+1)%3, 6, []float64{1})
				sub.Recv((sub.Rank()+2)%3, 6)
			}
			nd.Allreduce(OpMax, nil)
		}
		nodeBytes[nd.GlobalRank()], nodeMsgs[nd.GlobalRank()] = nd.state.bytesSent, nd.state.msgsSent
	})
	if err != nil {
		t.Fatal(err)
	}
	var sumBytes, sumMsgs int64
	for g := range nodeBytes {
		sumBytes += nodeBytes[g]
		sumMsgs += nodeMsgs[g]
	}
	if c.BytesSent() != sumBytes || c.MsgsSent() != sumMsgs {
		t.Fatalf("Comm totals %d B / %d msgs, Σ nodes %d B / %d msgs", c.BytesSent(), c.MsgsSent(), sumBytes, sumMsgs)
	}
	// Per round: n ring messages, 4 root-view collectives of 2(n-1) or n-1
	// star messages (allreduce and barrier up + down; bcast down; gather
	// up), and on the 3-member view one allreduce (4) plus 3 ring messages.
	if want := int64(3 * (n + 2*2*(n-1) + 2*(n-1) + 4 + 3)); sumMsgs != want {
		t.Fatalf("MsgsSent = %d, want %d", sumMsgs, want)
	}
}

// TestRunTwiceIsAnError pins that a Comm is single-use: the second Run
// returns an error without running the body (its arenas are spent and the
// end-of-run traffic sum would count the first run twice).
func TestRunTwiceIsAnError(t *testing.T) {
	c := New(3, testModel())
	if err := c.Run(func(nd *Node) { nd.AllreduceScalar(OpSum, 1) }); err != nil {
		t.Fatal(err)
	}
	clock, bytes, msgs := c.MaxClock(), c.BytesSent(), c.MsgsSent()
	err := c.Run(func(nd *Node) { panic("body of a second Run must not execute") })
	if err == nil || !strings.Contains(err.Error(), "Run called twice") {
		t.Fatalf("second Run: err = %v, want the called-twice error", err)
	}
	if c.MaxClock() != clock || c.BytesSent() != bytes || c.MsgsSent() != msgs {
		t.Fatalf("second Run changed the results: clock %g→%g, bytes %d→%d, msgs %d→%d",
			clock, c.MaxClock(), bytes, c.BytesSent(), msgs, c.MsgsSent())
	}
}

func TestAddClock(t *testing.T) {
	c := New(1, testModel())
	err := c.Run(func(nd *Node) {
		nd.AddClock(1.5)
		nd.AddClock(0.5)
		if nd.Clock() != 2.0 {
			panic("AddClock must advance the clock")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := New(1, testModel()).Run(func(nd *Node) { nd.AddClock(-1) }); err == nil {
		t.Fatal("a negative clock advance must fail the run")
	}
}

func TestCollectiveCostScalesWithLogN(t *testing.T) {
	timeFor := func(n int) float64 {
		c := New(n, testModel())
		if err := c.Run(func(nd *Node) { nd.Allreduce(OpMax, nil) }); err != nil {
			t.Fatal(err)
		}
		return c.MaxClock()
	}
	t4, t64 := timeFor(4), timeFor(64)
	if t64 <= t4 {
		t.Fatalf("64-node barrier (%g) should cost more than 4-node (%g)", t64, t4)
	}
	ratio := t64 / t4
	if math.Abs(ratio-3) > 0.75 { // log2(64)/log2(4) = 3
		t.Fatalf("cost ratio %g, want ≈ 3", ratio)
	}
}

func TestDefaultCostModelSane(t *testing.T) {
	m := DefaultCostModel()
	if m.FlopTime <= 0 || m.Latency <= 0 || m.BytePeriod <= 0 || m.Overhead < 0 {
		t.Fatalf("degenerate default model: %+v", m)
	}
	if m.Latency < m.Overhead {
		t.Fatal("latency should dominate per-message overhead")
	}
}

// TestNonblockingOverlapHidesLatency pins the LogGP semantics of IRecv+Wait:
// compute between the post and the wait overlaps with the message flight, so
// the overlapped receiver finishes at max(compute, delivery)+tail instead of
// delivery+compute+tail.
func TestNonblockingOverlapHidesLatency(t *testing.T) {
	model := testModel()
	payload := []float64{1, 2, 3, 4}
	bytes := float64(8 * len(payload))
	delivery := model.Overhead + model.Latency + bytes*model.BytePeriod

	run := func(overlap bool) float64 {
		var clock float64
		c := New(2, model)
		err := c.Run(func(nd *Node) {
			if nd.Rank() == 0 {
				nd.ISend(1, 5, payload)
				return
			}
			const flops = 1e4
			req := nd.IRecv(0, 5)
			if overlap {
				nd.Compute(replay.WorkVec, flops) // hidden behind the flight
				req.Wait()
			} else {
				req.Wait()
				nd.Compute(replay.WorkVec, flops) // stacked on top of the delivery
			}
			clock = nd.Clock()
		})
		if err != nil {
			t.Fatal(err)
		}
		return clock
	}

	compute := 1e4 * model.FlopTime
	if got, want := run(true), math.Max(compute, delivery); math.Abs(got-want) > 1e-15 {
		t.Fatalf("overlapped clock %v, want max(compute, delivery) = %v", got, want)
	}
	if got, want := run(false), delivery+compute; math.Abs(got-want) > 1e-15 {
		t.Fatalf("blocking clock %v, want delivery+compute = %v", got, want)
	}
	if run(true) >= run(false) {
		t.Fatal("overlap must yield a strictly lower clock when both compute and flight are nonzero")
	}
}

// TestWaitIsIdempotent checks that a second Wait returns the same payload
// without advancing the clock again.
func TestWaitIsIdempotent(t *testing.T) {
	c := New(2, testModel())
	err := c.Run(func(nd *Node) {
		if nd.Rank() == 0 {
			nd.ISend(1, 9, []float64{7})
			return
		}
		req := nd.IRecv(0, 9)
		first := req.Wait()
		clock := nd.Clock()
		second := req.Wait()
		if &first[0] != &second[0] || nd.Clock() != clock {
			panic("second Wait must be a no-op")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
