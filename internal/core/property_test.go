package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"esrp/internal/matgen"
	"esrp/internal/vec"
)

// The repo's strongest invariant, property-tested: for arbitrary ESRP
// configurations (interval, redundancy, failure time and place, spare or
// no-spare recovery), a failure-injected solve must rejoin the reference
// trajectory — same iteration count (±3 for FP reconstruction noise) and
// the same solution.
func TestESRPExactRecoveryProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep in -short mode")
	}
	a := matgen.Poisson2D(32, 32)
	b, _ := matgen.RHSForSolution(a, 9)
	const nodes = 6

	ref, err := Solve(Config{A: a, B: b, Nodes: nodes, CostModel: fastModel()})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Converged {
		t.Fatal("reference did not converge")
	}

	f := func(tRaw, phiRaw, iterRaw, rankRaw uint8, noSpare bool) bool {
		tInt := 3 + int(tRaw)%30
		phi := 1 + int(phiRaw)%3
		failIter := 3 + int(iterRaw)%(ref.Iterations-5)
		psi := 1 + int(rankRaw)%phi
		// Any block position, the one reaching the top rank included: there
		// the shrink's adopter is the survivor before the block.
		first := int(rankRaw) % (nodes - psi + 1)
		ranks := make([]int, psi)
		for i := range ranks {
			ranks[i] = first + i
		}
		cfg := Config{
			A: a, B: b, Nodes: nodes,
			Strategy: StrategyESRP, T: tInt, Phi: phi,
			NoSpareNodes: noSpare,
			Failures:     []FailureSpec{{Iteration: failIter, Ranks: ranks}},
			CostModel:    fastModel(),
		}
		res, err := Solve(cfg)
		if err != nil {
			t.Logf("T=%d φ=%d ψ=%d fail@%d ranks=%v noSpare=%v: %v",
				tInt, phi, psi, failIter, ranks, noSpare, err)
			return false
		}
		if !res.Converged {
			t.Logf("T=%d φ=%d fail@%d ranks=%v noSpare=%v: no convergence", tInt, phi, failIter, ranks, noSpare)
			return false
		}
		// A failure before the first completed storage stage falls back to
		// a restart and legitimately leaves the trajectory; otherwise the
		// trajectory must match the reference.
		if failIter > tInt+1 {
			if res.Iterations < ref.Iterations-1 || res.Iterations > ref.Iterations+3 {
				t.Logf("T=%d φ=%d fail@%d ranks=%v noSpare=%v: iterations %d vs reference %d",
					tInt, phi, failIter, ranks, noSpare, res.Iterations, ref.Iterations)
				return false
			}
			if d := vec.MaxAbsDiff(res.X, ref.X); d > 1e-6 {
				t.Logf("T=%d φ=%d fail@%d ranks=%v noSpare=%v: solution off by %g",
					tInt, phi, failIter, ranks, noSpare, d)
				return false
			}
		}
		return true
	}
	// A fixed seed: every run draws the same configurations, so a failure
	// reproduces.
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Same property for IMCR: rollback must rejoin the reference trajectory.
func TestIMCRExactRecoveryProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep in -short mode")
	}
	a := matgen.Poisson2D(32, 32)
	b, _ := matgen.RHSForSolution(a, 9)
	const nodes = 6

	ref, err := Solve(Config{A: a, B: b, Nodes: nodes, CostModel: fastModel()})
	if err != nil || !ref.Converged {
		t.Fatalf("reference: %v", err)
	}
	f := func(tRaw, phiRaw, iterRaw, rankRaw uint8) bool {
		tInt := 1 + int(tRaw)%30
		phi := 1 + int(phiRaw)%3
		failIter := 1 + int(iterRaw)%(ref.Iterations-3)
		psi := 1 + int(rankRaw)%phi
		first := int(rankRaw) % (nodes - psi)
		ranks := make([]int, psi)
		for i := range ranks {
			ranks[i] = first + i
		}
		cfg := Config{
			A: a, B: b, Nodes: nodes,
			Strategy: StrategyIMCR, T: tInt, Phi: phi,
			Failures:  []FailureSpec{{Iteration: failIter, Ranks: ranks}},
			CostModel: fastModel(),
		}
		res, err := Solve(cfg)
		if err != nil || !res.Converged {
			t.Logf("T=%d φ=%d fail@%d ranks=%v: err=%v converged=%v", tInt, phi, failIter, ranks, err, res != nil && res.Converged)
			return false
		}
		if failIter > tInt {
			if res.Iterations < ref.Iterations-1 || res.Iterations > ref.Iterations+3 {
				return false
			}
			if d := vec.MaxAbsDiff(res.X, ref.X); d > 1e-6 {
				return false
			}
		}
		return true
	}
	// A fixed seed: every run draws the same configurations, so a failure
	// reproduces.
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}
