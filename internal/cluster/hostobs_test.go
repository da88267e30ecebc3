package cluster

import (
	"math"
	"testing"
	"time"

	"esrp/internal/hostobs"
)

// TestBarrierStatsWaitBounded runs an observed Comm over many collective
// phases and checks the accounting invariants the observability layer
// promises: per-member phase counts match, exactly one member releases each
// phase, arrival positions cover [0, n), and — the headline invariant — the
// summed wait time never exceeds members × wall time.
func TestBarrierStatsWaitBounded(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		const n, phases = 5, 300
		st := hostobs.NewBarrierStats(n)
		c := New(n, testModel())
		c.ObserveHost(st)
		start := time.Now()
		err := c.Run(func(nd *Node) {
			for p := 0; p < phases; p++ {
				nd.Allreduce(OpMax, nil)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		wall := time.Since(start)

		snap := st.Snapshot()
		var releases, arrivalSum, waits int64
		for m, ms := range snap.Members {
			if ms.Phases != phases {
				t.Errorf("member %d recorded %d phases, want %d", m, ms.Phases, phases)
			}
			releases += ms.Releases
			arrivalSum += int64(math.Round(ms.MeanArrival * float64(ms.Phases)))
			waits += ms.Wait[hostobs.RegimePark].Count
			if ms.MeanArrival < 0 || ms.MeanArrival > n-1 {
				t.Errorf("member %d mean arrival %g outside [0,%d]", m, ms.MeanArrival, n-1)
			}
		}
		if releases != phases {
			t.Errorf("%d releases recorded, want exactly one per phase (%d)", releases, phases)
		}
		// Each phase's arrival positions are a permutation of 0..n-1, so the
		// total across members is phases * n*(n-1)/2.
		if want := int64(phases * n * (n - 1) / 2); arrivalSum != want {
			t.Errorf("arrival position sum %d, want %d", arrivalSum, want)
		}
		// Every member but the phase's last arriver yields and is resumed.
		if want := int64(phases * (n - 1)); waits != want {
			t.Errorf("%d waits recorded, want one per early arrival (%d)", waits, want)
		}
		if got, limit := st.TotalWaitNs(), int64(n)*wall.Nanoseconds(); got > limit {
			t.Errorf("total recorded wait %dns exceeds members×wall %dns", got, limit)
		}
		if st.Snapshot().Aborts != 0 {
			t.Errorf("aborts %d, want 0", st.Snapshot().Aborts)
		}
	})
}

// TestBarrierStatsAbort pins that a failed run counts one abort, however
// many arenas and blocked members it unwinds, and that recording stops
// cleanly.
func TestBarrierStatsAbort(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		const n = 4
		st := hostobs.NewBarrierStats(n)
		c := New(n, testModel())
		c.ObserveHost(st)
		err := c.Run(func(nd *Node) {
			nd.Allreduce(OpMax, nil)
			if nd.Rank() == n-1 {
				panic("boom")
			}
			if sub := nd.Sub([]int{0, 1}); sub != nil {
				sub.Allreduce(OpMax, nil)
			}
			nd.Allreduce(OpMax, nil)
		})
		if err == nil {
			t.Fatal("Run returned no error")
		}
		if got := st.Snapshot().Aborts; got != 1 {
			t.Errorf("aborts %d, want 1", got)
		}
	})
}

// TestObserveHostOnComm runs collectives through an observed Comm and
// checks the stats surface real collective traffic, including the root arena
// that exists before ObserveHost is called.
func TestObserveHostOnComm(t *testing.T) {
	const n = 4
	c := New(n, DefaultCostModel())
	st := hostobs.NewBarrierStats(n)
	c.ObserveHost(st)
	err := c.Run(func(nd *Node) {
		for i := 0; i < 10; i++ {
			nd.Allreduce(OpMax, nil)
			nd.AllreduceScalar(OpSum, float64(nd.Rank()))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := st.Snapshot()
	var phases int64
	for _, ms := range snap.Members {
		phases += ms.Phases
	}
	if phases == 0 {
		t.Fatal("observed Comm recorded no collective phases")
	}
	if st.TotalWaitNs() < 0 {
		t.Errorf("negative total wait %d", st.TotalWaitNs())
	}
}

// TestObserveHostCapacityPanics pins the guard against undersized stats.
func TestObserveHostCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ObserveHost with capacity < n did not panic")
		}
	}()
	New(4, DefaultCostModel()).ObserveHost(hostobs.NewBarrierStats(2))
}
