package campaign

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"esrp/internal/cluster"
	"esrp/internal/replay"
)

// The replay-only form of clock homogeneity: a schedule read back from the
// cache and re-costed under 2ᵏ·M gives exactly 2ᵏ times what it gives under
// M, in every rank clock, envelope bound, SimTime and RecoveryTime, and the
// same traffic and event count; under M itself it gives the solve's figures.
// It holds on a campaign's schedules because a grid sets no DetectionTime,
// so no schedule carries a ClockAdd (raw seconds, which do not scale).
func TestCachedSchedulesRecostHomogeneously(t *testing.T) {
	dir := t.TempDir()
	cold := tinyGrid()
	cold.Cache = openCache(t, dir)
	coldRep, err := Run(cold)
	if err != nil {
		t.Fatal(err)
	}

	warm := tinyGrid()
	warm.Cache = openCache(t, dir)
	warm.Machines = []MachinePoint{{Name: "base", Model: cluster.DefaultCostModel()}}
	scheds := make([]*replay.Schedule, len(coldRep.Cells))
	var mu sync.Mutex
	warm.OnCellSchedule = func(index int, _ *Cell, s *replay.Schedule) {
		mu.Lock()
		defer mu.Unlock()
		scheds[index] = s
	}
	if ctr := runOpts(t, warm, cacheOpts{}, true).ctr; ctr.Misses != 0 {
		t.Fatalf("warm sweep counters: %+v (want zero misses)", ctr)
	}

	m := cluster.DefaultCostModel()
	ks := []int{1, -2, 10}
	models := []replay.CostModel{m}
	for _, k := range ks {
		s := math.Ldexp(1, k)
		models = append(models, replay.CostModel{FlopTime: s * m.FlopTime, Latency: s * m.Latency, BytePeriod: s * m.BytePeriod, Overhead: s * m.Overhead})
	}
	for i, sched := range scheds {
		if sched == nil {
			t.Fatalf("cell %d: no schedule delivered", i)
		}
		reps, err := sched.RecostAll(models)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		base, cell := reps[0], &coldRep.Cells[i]
		if base.Events == 0 || base.SimTime <= 0 {
			t.Fatalf("cell %d: %d events re-cost to %g s; the relation is vacuous", i, base.Events, base.SimTime)
		}
		if base.SimTime != cell.SimTime || base.RecoveryTime != cell.RecoveryTime || base.BytesSent != cell.BytesSent {
			t.Errorf("cell %d: re-cost under the recording model {%.17g %.17g %d}, the solve {%.17g %.17g %d}",
				i, base.SimTime, base.RecoveryTime, base.BytesSent, cell.SimTime, cell.RecoveryTime, cell.BytesSent)
		}
		for j, k := range ks {
			if d := scaledBy(base, reps[j+1], k); d != "" {
				t.Errorf("cell %d (%s T=%d seed %d), k=%d: %s", i, cell.Strategy, cell.T, cell.Seed, k, d)
			}
		}
	}
}

// scaledBy names the first figure of got that is not exactly 2ᵏ times the
// same figure of base ("" when none), or a count that differs.
func scaledBy(base, got *replay.Replayed, k int) string {
	same := func(a, b float64) bool { return math.Float64bits(math.Ldexp(a, k)) == math.Float64bits(b) }
	switch {
	case !same(base.SimTime, got.SimTime):
		return fmt.Sprintf("SimTime %.17g, 2^k × base = %.17g", got.SimTime, math.Ldexp(base.SimTime, k))
	case !same(base.RecoveryTime, got.RecoveryTime):
		return fmt.Sprintf("RecoveryTime %.17g, 2^k × base = %.17g", got.RecoveryTime, math.Ldexp(base.RecoveryTime, k))
	case base.BytesSent != got.BytesSent || base.MsgsSent != got.MsgsSent || base.Events != got.Events:
		return fmt.Sprintf("counts %d/%d/%d, base %d/%d/%d", got.BytesSent, got.MsgsSent, got.Events, base.BytesSent, base.MsgsSent, base.Events)
	case len(base.Clocks) != len(got.Clocks) || len(base.Envelopes) != len(got.Envelopes):
		return "rank counts differ"
	}
	for g, c := range base.Clocks {
		if !same(c, got.Clocks[g]) {
			return fmt.Sprintf("rank %d clock %.17g, 2^k × base = %.17g", g, got.Clocks[g], math.Ldexp(c, k))
		}
	}
	for g, spans := range base.Envelopes {
		if len(spans) != len(got.Envelopes[g]) {
			return fmt.Sprintf("rank %d: %d envelopes, base %d", g, len(got.Envelopes[g]), len(spans))
		}
		for i, sp := range spans {
			if o := got.Envelopes[g][i]; o.Iter != sp.Iter || !same(sp.Start, o.Start) || !same(sp.End, o.End) {
				return fmt.Sprintf("rank %d envelope %d: %+v, base %+v", g, i, o, sp)
			}
		}
	}
	return ""
}
