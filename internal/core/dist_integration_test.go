package core

import (
	"testing"

	"esrp/internal/dist"
	"esrp/internal/matgen"
	"esrp/internal/vec"
)

// The balanced distribution changes only data placement, never the Krylov
// process: a solve with BalanceNNZ must land on the same solution as the
// uniform block split, on an SPD problem with a known ground truth.
func TestBalancedPartitionSameSolutionAsUniform(t *testing.T) {
	a := skewedSPD(600)
	b, xstar := matgen.RHSForSolution(a, 9)

	uniform := solveOK(t, Config{A: a, B: b, Nodes: 6, CostModel: fastModel()})
	balanced := solveOK(t, Config{A: a, B: b, Nodes: 6, BalanceNNZ: true, CostModel: fastModel()})

	if d := vec.MaxAbsDiff(uniform.X, xstar); d > 1e-5 {
		t.Fatalf("uniform solve off the ground truth by %g", d)
	}
	if d := vec.MaxAbsDiff(balanced.X, xstar); d > 1e-5 {
		t.Fatalf("balanced solve off the ground truth by %g", d)
	}
	if d := vec.MaxAbsDiff(uniform.X, balanced.X); d > 1e-5 {
		t.Fatalf("balanced and uniform solutions differ by %g", d)
	}
}

// buildPartition must hand the solver exactly the partition the dist
// package computes for the documented weight model.
func TestBuildPartitionMatchesDist(t *testing.T) {
	a := skewedSPD(400)
	cfg := Config{A: a, B: make([]float64, a.Rows), Nodes: 5, MaxBlock: 10, BalanceNNZ: true}
	got, err := PartitionFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perRow := 16.0 + 2*float64(cfg.MaxBlock)
	weights := make([]float64, a.Rows)
	for i := range weights {
		weights[i] = 2*float64(a.RowPtr[i+1]-a.RowPtr[i]) + perRow
	}
	want, err := dist.NewBalancedWeightPartition(weights, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("buildPartition gave %v, want %v", got, want)
	}
	// Without balancing it must be the uniform block split.
	cfg.BalanceNNZ = false
	got, err = PartitionFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(dist.NewBlockPartition(a.Rows, 5)) {
		t.Fatalf("uniform buildPartition gave %v", got)
	}
}

// The no-spare recovery's repartitioning is dist.ShrinkAfterLoss; assert
// the shrunken layout it continues on is the one the helper predicts.
func TestNoSpareShrinkMatchesDistHelper(t *testing.T) {
	a := skewedSPD(800)
	b, _ := matgen.RHSForSolution(a, 4)
	nodes := 8
	failed := []int{2, 3}
	cfg := Config{
		A: a, B: b, Nodes: nodes,
		Strategy: StrategyESRP, T: 10, Phi: 2,
		NoSpareNodes: true,
		Failures:     []FailureSpec{{Iteration: 15, Ranks: failed}},
		CostModel:    fastModel(),
	}
	res := solveOK(t, cfg)
	if res.ActiveNodes != nodes-len(failed) {
		t.Fatalf("ActiveNodes = %d, want %d", res.ActiveNodes, nodes-len(failed))
	}
	part := dist.NewBlockPartition(a.Rows, nodes)
	survivors := []int{0, 1, 4, 5, 6, 7}
	shrunk, err := part.ShrinkAfterLoss(survivors)
	if err != nil {
		t.Fatal(err)
	}
	if shrunk.N != res.ActiveNodes {
		t.Fatalf("predicted %d parts, solver continued on %d nodes", shrunk.N, res.ActiveNodes)
	}
	// The adopter (old rank 4, new rank 2) absorbs the failed block.
	wantLo, wantHi := part.Lo(failed[0]), part.Hi(4)
	if shrunk.Lo(2) != wantLo || shrunk.Hi(2) != wantHi {
		t.Fatalf("adopter range [%d,%d), want [%d,%d)", shrunk.Lo(2), shrunk.Hi(2), wantLo, wantHi)
	}
	checkSolution(t, cfg, res, 5e-8)
}
