package core

import (
	"testing"

	"esrp/internal/matgen"
	"esrp/internal/precond"
)

// IC(0) is the "more appropriate preconditioner" extension the paper's
// conclusions call for. It must (a) beat block Jacobi in iteration count on
// the ill-conditioned analogs and (b) remain fully compatible with the
// exact state reconstruction.
func TestIC0BeatsBlockJacobiIterations(t *testing.T) {
	a := matgen.EmiliaLike(10, 10, 10, 9)
	b := matgen.RHSOnes(a.Rows)
	iters := map[precond.Kind]int{}
	for _, pk := range []precond.Kind{precond.BlockJacobi, precond.IC0} {
		cfg := Config{A: a, B: b, Nodes: 4, PrecondKind: pk, CostModel: fastModel()}
		iters[pk] = solveOK(t, cfg).Iterations
	}
	if iters[precond.IC0] >= iters[precond.BlockJacobi] {
		t.Fatalf("IC(0) (%d iters) should beat block Jacobi (%d iters)",
			iters[precond.IC0], iters[precond.BlockJacobi])
	}
}

func TestIC0ESRPRecovery(t *testing.T) {
	a := matgen.EmiliaLike(8, 8, 8, 11)
	b := matgen.RHSOnes(a.Rows)
	cfg := Config{
		A: a, B: b, Nodes: 8,
		PrecondKind: precond.IC0,
		Strategy:    StrategyESRP, T: 10, Phi: 2,
		Failures:  []FailureSpec{{Iteration: 25, Ranks: []int{3, 4}}},
		CostModel: fastModel(),
	}
	res := checkExactRecovery(t, cfg, 3)
	if res.RecoveredAt != 21 {
		t.Fatalf("RecoveredAt = %d, want 21 (storage stage at T=10 before iteration 25)", res.RecoveredAt)
	}
}

func TestIC0ESRRecoveryMultipleFailures(t *testing.T) {
	a := matgen.EmiliaLike(8, 8, 8, 13)
	b := matgen.RHSOnes(a.Rows)
	cfg := Config{
		A: a, B: b, Nodes: 8,
		PrecondKind: precond.IC0,
		Strategy:    StrategyESR, Phi: 3,
		Failures:  []FailureSpec{{Iteration: 30, Ranks: []int{5, 6, 7}}},
		CostModel: fastModel(),
	}
	res := checkExactRecovery(t, cfg, 3)
	if res.WastedIters != 0 {
		t.Fatalf("ESR wastes no iterations, got %d", res.WastedIters)
	}
}

func TestIC0IMCRRecovery(t *testing.T) {
	a := matgen.EmiliaLike(8, 8, 8, 15)
	b := matgen.RHSOnes(a.Rows)
	cfg := Config{
		A: a, B: b, Nodes: 8,
		PrecondKind: precond.IC0,
		Strategy:    StrategyIMCR, T: 10, Phi: 1,
		Failures:  []FailureSpec{{Iteration: 25, Ranks: []int{2}}},
		CostModel: fastModel(),
	}
	res := checkExactRecovery(t, cfg, 3)
	if res.RecoveredAt != 21 {
		t.Fatalf("RecoveredAt = %d, want 21", res.RecoveredAt)
	}
}
