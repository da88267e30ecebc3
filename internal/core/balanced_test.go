package core

import (
	"testing"

	"esrp/internal/matgen"
	"esrp/internal/sparse"
	"esrp/internal/vec"
)

// skewedSPD builds an SPD matrix whose first rows are much denser than the
// rest (half-bandwidth 24 vs 2), so a uniform row split concentrates the
// SpMV work on the first nodes.
func skewedSPD(n int) *sparse.CSR {
	b := sparse.NewBuilder(n, n)
	rowAbs := make([]float64, n)
	for i := 0; i < n; i++ {
		bw := 2
		if i < n/4 {
			bw = 24
		}
		for j := i + 1; j <= i+bw && j < n; j++ {
			b.AddSym(i, j, -1)
			rowAbs[i]++
			rowAbs[j]++
		}
	}
	for i := 0; i < n; i++ {
		b.Add(i, i, rowAbs[i]+1)
	}
	return b.Build()
}

func TestBalanceNNZConverges(t *testing.T) {
	a := skewedSPD(800)
	b, xstar := matgen.RHSForSolution(a, 4)
	cfg := Config{A: a, B: b, Nodes: 8, BalanceNNZ: true, CostModel: fastModel()}
	res := solveOK(t, cfg)
	if d := vec.MaxAbsDiff(res.X, xstar); d > 1e-5 {
		t.Fatalf("solution off by %g", d)
	}
}

func TestBalanceNNZReducesCriticalPath(t *testing.T) {
	// On the skewed matrix the densest node dominates every SpMV under the
	// uniform split; nnz balancing must lower the modeled runtime.
	a := skewedSPD(2000)
	rhs := matgen.RHSOnes(a.Rows)
	uniform := solveOK(t, Config{A: a, B: rhs, Nodes: 8, CostModel: fastModel()})
	balanced := solveOK(t, Config{A: a, B: rhs, Nodes: 8, BalanceNNZ: true, CostModel: fastModel()})
	if balanced.SimTime >= uniform.SimTime {
		t.Fatalf("balanced %g s not below uniform %g s on a skewed matrix",
			balanced.SimTime, uniform.SimTime)
	}
	// Same Krylov process, so the trajectory is identical up to the
	// reduction order of the collectives.
	if diff := balanced.Iterations - uniform.Iterations; diff < -2 || diff > 2 {
		t.Fatalf("iterations differ too much: %d vs %d", balanced.Iterations, uniform.Iterations)
	}
}

func TestBalanceNNZWithESRPRecovery(t *testing.T) {
	// The resilience machinery only relies on contiguous ownership, so
	// exact recovery must hold on a balanced partition too.
	a := skewedSPD(800)
	b, _ := matgen.RHSForSolution(a, 4)
	cfg := Config{
		A: a, B: b, Nodes: 8, BalanceNNZ: true,
		Strategy: StrategyESRP, T: 10, Phi: 2,
		Failures:  []FailureSpec{{Iteration: 15, Ranks: []int{2, 3}}},
		CostModel: fastModel(),
	}
	res := checkExactRecovery(t, cfg, 3)
	if res.RecoveredAt != 11 {
		t.Fatalf("RecoveredAt = %d, want 11", res.RecoveredAt)
	}
}

func TestBalanceNNZWithIMCR(t *testing.T) {
	a := skewedSPD(800)
	b, _ := matgen.RHSForSolution(a, 4)
	imcr := Config{
		A: a, B: b, Nodes: 8, BalanceNNZ: true,
		Strategy: StrategyIMCR, T: 10, Phi: 1,
		Failures:  []FailureSpec{{Iteration: 15, Ranks: []int{5}}},
		CostModel: fastModel(),
	}
	res := solveOK(t, imcr)
	if !res.Recovered {
		t.Fatal("IMCR on balanced partition did not recover")
	}
	checkSolution(t, imcr, res, 5e-8)
}
