package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"esrp/internal/cluster"
	"esrp/internal/precond"
)

// TestMetamorphicRelations checks two relations between solves. Both are
// exact, bit for bit, because scaling by a power of two commutes with
// rounding, with max and with sums of non-negative terms; neither compares
// the solver or its clock with a second copy of itself.
//
//   - Clock homogeneity: the four CostModel parameters and DetectionTime
//     scaled by 2ᵏ scale SimTime and RecoveryTime by exactly 2ᵏ and leave
//     the iterations, residual bits, iterand, traffic and event log as they
//     were. A hard-coded seconds constant or bytes charged as seconds
//     breaks it.
//   - Solver homogeneity: A → 4ᵏA and b → 4ᵏb leave the iterand, residual
//     bits, iterations, event log, traffic, SimTime and RecoveryTime as they
//     were, under every preconditioner (Cholesky and IC(0) factors scale by
//     exactly 2ᵏ). An absolute tolerance or an eps guard breaks it.
//
// The grid is driverScenarios × k ∈ {1, −2, 10} for the clock and
// driverScenarios × {none, Jacobi, block Jacobi, IC(0)} × k ∈ {1, −1, 5}
// for the solver. Every seventh case runs: 7 is prime to the 3 values of k
// and the 4 preconditioners, so the stride still covers each.
func TestMetamorphicRelations(t *testing.T) {
	if reflect.TypeOf(cluster.CostModel{}).NumField() != 4 {
		t.Fatal("CostModel gained a parameter: scale it in scaleClock too")
	}
	type relCase struct {
		sc    driverScenario
		pc    precond.Kind // precond.Default keeps the scenario's own
		k     int
		clock bool // clock homogeneity; solver homogeneity otherwise
	}
	var cases []relCase
	for _, sc := range driverScenarios() {
		for _, k := range []int{1, -2, 10} {
			cases = append(cases, relCase{sc: sc, k: k, clock: true})
		}
	}
	for _, sc := range driverScenarios() {
		for _, pc := range []precond.Kind{precond.None, precond.Jacobi, precond.BlockJacobi, precond.IC0} {
			for _, k := range []int{1, -1, 5} {
				cases = append(cases, relCase{sc: sc, pc: pc, k: k})
			}
		}
	}

	type baseKey struct {
		name string
		pc   precond.Kind
	}
	bases := map[baseKey]*Result{}
	for i, c := range cases {
		if i%7 != 0 {
			continue
		}
		cfg := driverConfig(t, c.sc)
		if c.pc != precond.Default {
			cfg.PrecondKind = c.pc
		}
		key := baseKey{c.sc.name, c.pc}
		base, ok := bases[key]
		if !ok {
			var err error
			if base, err = Solve(cfg); err != nil {
				t.Fatalf("%s: %v", c.sc.name, err)
			}
			bases[key] = base
		}
		name := fmt.Sprintf("solver/%s/%v/k=%d", c.sc.name, cfg.PrecondKind, c.k)
		factor := 1.0 // what the relation multiplies the clock by
		if c.clock {
			name = fmt.Sprintf("clock/%s/k=%d", c.sc.name, c.k)
			scaleClock(&cfg, c.k)
			factor = math.Ldexp(1, c.k)
		} else {
			scaleSystem(&cfg, 2*c.k)
		}
		scaled, err := Solve(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := recordOf(base)
		want.SimTimeBits = fmt.Sprintf("%016x", math.Float64bits(factor*base.SimTime))
		if got := recordOf(scaled); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: record\n%+v\nwant\n%+v", name, got, want)
		}
		if got, want := scaled.RecoveryTime, factor*base.RecoveryTime; got != want {
			t.Errorf("%s: recovery time %v, want %v", name, got, want)
		}
	}
}

// scaleClock multiplies the machine model's four parameters and the
// detection time by 2ᵏ.
func scaleClock(cfg *Config, k int) {
	m := cluster.DefaultCostModel()
	if cfg.CostModel != nil {
		m = *cfg.CostModel
	}
	for _, p := range []*float64{&m.FlopTime, &m.Latency, &m.BytePeriod, &m.Overhead} {
		*p = math.Ldexp(*p, k)
	}
	cfg.CostModel = &m
	cfg.DetectionTime = math.Ldexp(cfg.DetectionTime, k)
}

// scaleSystem multiplies A and b by 2ᵉ, in copies.
func scaleSystem(cfg *Config, e int) {
	a := *cfg.A
	a.Val = make([]float64, len(cfg.A.Val))
	for i, v := range cfg.A.Val {
		a.Val[i] = math.Ldexp(v, e)
	}
	b := make([]float64, len(cfg.B))
	for i, v := range cfg.B {
		b[i] = math.Ldexp(v, e)
	}
	cfg.A, cfg.B = &a, b
}
