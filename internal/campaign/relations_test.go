package campaign

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"esrp/internal/cluster"
	"esrp/internal/obs"
	"esrp/internal/replay"
)

// The replay-only form of clock homogeneity: a schedule read back from the
// cache and re-costed under 2ᵏ·M gives exactly 2ᵏ times what it gives under
// M, in every rank clock, SimTime and RecoveryTime, and the same traffic; its
// traced walk under 2ᵏ·M gives 2ᵏ times every recovery envelope bound; under
// M itself it gives the solve's figures.
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
		envs := make([][][]obs.Span, len(models))
		for j, m := range models {
			_, tr, err := sched.Trace(m, obs.Options{Trace: true}, nil)
			if err != nil {
				t.Fatalf("cell %d model %d: Trace: %v", i, j, err)
			}
			envs[j] = tr.Envelopes
		}
		base, cell := &reps[0], &coldRep.Cells[i]
		if sched.NumEvents() == 0 || base.SimTime <= 0 {
			t.Fatalf("cell %d: %d events re-cost to %g s; the relation is vacuous", i, sched.NumEvents(), base.SimTime)
		}
		if base.SimTime != cell.SimTime || base.RecoveryTime != cell.RecoveryTime || base.BytesSent != cell.BytesSent {
			t.Errorf("cell %d: re-cost under the recording model {%.17g %.17g %d}, the solve {%.17g %.17g %d}",
				i, base.SimTime, base.RecoveryTime, base.BytesSent, cell.SimTime, cell.RecoveryTime, cell.BytesSent)
		}
		for j, k := range ks {
			if d := scaledBy(base, &reps[j+1], envs[0], envs[j+1], k); d != "" {
				t.Errorf("cell %d (%s T=%d seed %d), k=%d: %s", i, cell.Strategy, cell.T, cell.Seed, k, d)
			}
		}
	}
}

// scaledBy names the first figure of got, or of its traced envelopes, that
// is not exactly 2ᵏ times the same figure of base ("" when none), or a count
// that differs.
func scaledBy(base, got *replay.Replayed, baseEnvs, gotEnvs [][]obs.Span, k int) string {
	same := func(a, b float64) bool { return math.Float64bits(math.Ldexp(a, k)) == math.Float64bits(b) }
	switch {
	case !same(base.SimTime, got.SimTime):
		return fmt.Sprintf("SimTime %.17g, 2^k × base = %.17g", got.SimTime, math.Ldexp(base.SimTime, k))
	case !same(base.RecoveryTime, got.RecoveryTime):
		return fmt.Sprintf("RecoveryTime %.17g, 2^k × base = %.17g", got.RecoveryTime, math.Ldexp(base.RecoveryTime, k))
	case base.BytesSent != got.BytesSent || base.MsgsSent != got.MsgsSent:
		return fmt.Sprintf("counts %d/%d, base %d/%d", got.BytesSent, got.MsgsSent, base.BytesSent, base.MsgsSent)
	case len(base.Clocks) != len(got.Clocks) || len(baseEnvs) != len(gotEnvs):
		return "rank counts differ"
	}
	for g, c := range base.Clocks {
		if !same(c, got.Clocks[g]) {
			return fmt.Sprintf("rank %d clock %.17g, 2^k × base = %.17g", g, got.Clocks[g], math.Ldexp(c, k))
		}
	}
	for g, spans := range baseEnvs {
		if len(spans) != len(gotEnvs[g]) {
			return fmt.Sprintf("rank %d: %d envelopes, base %d", g, len(gotEnvs[g]), len(spans))
		}
		for i, sp := range spans {
			if o := gotEnvs[g][i]; o.Iter != sp.Iter || !same(sp.Start, o.Start) || !same(sp.End, o.End) {
				return fmt.Sprintf("rank %d envelope %d: %+v, base %+v", g, i, o, sp)
			}
		}
	}
	return ""
}
