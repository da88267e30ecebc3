package replay_test

import (
	"math/rand"
	"testing"

	"esrp/internal/replay"
)

// Clock monotonicity: raising any one of FlopTime, Latency, BytePeriod or
// Overhead lowers no replayed rank clock and no SimTime. Every clock update
// is a max-plus step with non-negative weights, and rounding is monotone,
// so the relation is exact; it needs no second clock to compare against.
// RecoveryTime is a difference of clocks and is not monotone. Each fixture
// is re-costed under random machine points and, for each parameter, under
// the same points with that parameter raised by a random factor in (1, 4].
func TestRecostIsMonotoneInEachParameter(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	raise := []func(m *replay.CostModel, f float64){
		func(m *replay.CostModel, f float64) { m.FlopTime *= f },
		func(m *replay.CostModel, f float64) { m.Latency *= f },
		func(m *replay.CostModel, f float64) { m.BytePeriod *= f },
		func(m *replay.CostModel, f float64) { m.Overhead *= f },
	}
	names := []string{"FlopTime", "Latency", "BytePeriod", "Overhead"}
	for _, fx := range fixtures() {
		_, sched := record(t, fx, shortIters)
		base := randomModels(rng, 4)
		for p, up := range raise {
			models := append([]replay.CostModel(nil), base...)
			for j := range base {
				m := base[j]
				up(&m, 1+3*(1-rng.Float64()))
				models = append(models, m)
			}
			reps, err := sched.RecostAll(models)
			if err != nil {
				t.Fatalf("%s: %v", fx.name, err)
			}
			for j := range base {
				lo, hi := reps[j], reps[len(base)+j]
				if hi.SimTime < lo.SimTime {
					t.Errorf("%s, %s raised on model %d: SimTime %.17g < %.17g", fx.name, names[p], j, hi.SimTime, lo.SimTime)
				}
				for g, c := range lo.Clocks {
					if hi.Clocks[g] < c {
						t.Errorf("%s, %s raised on model %d: rank %d clock %.17g < %.17g", fx.name, names[p], j, g, hi.Clocks[g], c)
					}
				}
			}
		}
	}
}
