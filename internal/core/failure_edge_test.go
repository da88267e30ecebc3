package core

import (
	"testing"

	"esrp/internal/matgen"
)

// Failure-injection edge cases: the recovery protocols must stay live (no
// deadlock, no panic) and the solver must still converge at the boundaries
// of the storage machinery.

func TestESRFailureAtIterationZero(t *testing.T) {
	// At j = 0 only one redundant copy exists; ESR cannot reconstruct and
	// must fall back to a local restart, then converge.
	cfg := baseConfig(t)
	cfg.Strategy = StrategyESR
	cfg.Phi = 1
	cfg.Failures = []FailureSpec{{Iteration: 0, Ranks: []int{3}}}
	res := solveOK(t, cfg)
	checkSolution(t, cfg, res, 5e-8)
	if !res.Recovered {
		t.Fatal("failure must be recorded as recovered (via fallback)")
	}
}

func TestESRFailureAtIterationOne(t *testing.T) {
	// At j = 1 the queue holds p′(0) and p′(1): the earliest point where ESR
	// can reconstruct exactly.
	cfg := baseConfig(t)
	cfg.Strategy = StrategyESR
	cfg.Phi = 1
	cfg.Failures = []FailureSpec{{Iteration: 1, Ranks: []int{3}}}
	res := checkExactRecovery(t, cfg, 3)
	if res.RecoveredAt != 1 {
		t.Fatalf("RecoveredAt = %d, want 1", res.RecoveredAt)
	}
}

func TestESRPFailureLastIterationBeforeConvergence(t *testing.T) {
	cfg := baseConfig(t)
	ref := referenceFor(t, cfg)
	cfg.Strategy = StrategyESRP
	cfg.T = 10
	cfg.Phi = 1
	cfg.Failures = []FailureSpec{{Iteration: ref.Iterations - 1, Ranks: []int{7}}}
	res := solveOK(t, cfg)
	checkSolution(t, cfg, res, 5e-8)
	if !res.Recovered {
		t.Fatal("failure one iteration before convergence must still recover")
	}
}

func TestFailureIterationPastConvergenceNeverFires(t *testing.T) {
	cfg := baseConfig(t)
	ref := referenceFor(t, cfg)
	cfg.Strategy = StrategyESRP
	cfg.T = 10
	cfg.Phi = 1
	cfg.Failures = []FailureSpec{{Iteration: ref.Iterations + 100, Ranks: []int{1}}}
	res := solveOK(t, cfg)
	if res.Recovered {
		t.Fatal("failure scheduled past convergence must not fire")
	}
	if res.Iterations != ref.Iterations {
		t.Fatalf("iterations %d != reference %d", res.Iterations, ref.Iterations)
	}
}

func TestIMCRFailureExactlyAtCheckpointIteration(t *testing.T) {
	// The failure is injected after the SpMV of iteration j = T, i.e.
	// *before* afterIteration pushes the checkpoint of that iteration: the
	// previous checkpoint (from j = T... none, this is the first) is absent,
	// so the solver falls back; with j = 2T the checkpoint from T exists.
	cfg := baseConfig(t)
	cfg.Strategy = StrategyIMCR
	cfg.T = 10
	cfg.Phi = 1
	cfg.Failures = []FailureSpec{{Iteration: 20, Ranks: []int{4}}}
	res := solveOK(t, cfg)
	checkSolution(t, cfg, res, 5e-8)
	if !res.Recovered {
		t.Fatal("IMCR must recover at a checkpoint boundary")
	}
	if res.RecoveredAt != 11 {
		t.Fatalf("RecoveredAt = %d, want 11 (checkpoint after iteration 10)", res.RecoveredAt)
	}
}

func TestESRPFailureOfBoundaryRankBlocks(t *testing.T) {
	// First and last rank blocks exercise the modular neighbour wrap of the
	// designated destinations (Eq. 1).
	for _, ranks := range [][]int{{0, 1}, {6, 7}} {
		cfg := baseConfig(t)
		cfg.Strategy = StrategyESRP
		cfg.T = 10
		cfg.Phi = 2
		cfg.Failures = []FailureSpec{{Iteration: 35, Ranks: ranks}}
		res := checkExactRecovery(t, cfg, 3)
		if res.RecoveredAt != 31 {
			t.Fatalf("ranks %v: RecoveredAt = %d, want 31", ranks, res.RecoveredAt)
		}
	}
}

func TestESRPAllButOneNodeFails(t *testing.T) {
	// ψ = φ = N−1: a single survivor must hold everything needed.
	a := matgen.Poisson2D(20, 20)
	b := matgen.RHSOnes(a.Rows)
	cfg := Config{
		A: a, B: b, Nodes: 4,
		Strategy: StrategyESRP, T: 10, Phi: 3,
		Failures:  []FailureSpec{{Iteration: 25, Ranks: []int{1, 2, 3}}},
		CostModel: fastModel(),
	}
	res := solveOK(t, cfg)
	checkSolution(t, cfg, res, 5e-8)
	if !res.Recovered || res.RecoveredAt != 21 {
		t.Fatalf("recovered=%v at %d, want recovery to 21", res.Recovered, res.RecoveredAt)
	}
}

func TestDetectionTimeChargedOnRecovery(t *testing.T) {
	// The middleware-cost knob must add to the modeled recovery cost of a
	// failure run and leave failure-free runs untouched.
	base := baseConfig(t)
	base.Strategy = StrategyESRP
	base.T = 10
	base.Phi = 1
	base.Failures = []FailureSpec{{Iteration: 25, Ranks: []int{3}}}
	plain := solveOK(t, base)

	det := base
	det.DetectionTime = 0.5
	res := solveOK(t, det)
	if res.RecoveryTime < plain.RecoveryTime+0.5 {
		t.Fatalf("recovery %g missing detection cost (plain %g)", res.RecoveryTime, plain.RecoveryTime)
	}
	if res.SimTime < plain.SimTime+0.5 {
		t.Fatalf("total time %g missing detection cost (plain %g)", res.SimTime, plain.SimTime)
	}

	ff := base
	ff.Failures = nil
	ff.DetectionTime = 0.5
	ffRes := solveOK(t, ff)
	if ffRes.RecoveryTime != 0 {
		t.Fatalf("failure-free run must not pay detection cost, got %g", ffRes.RecoveryTime)
	}
}
