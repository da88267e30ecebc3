package core

import (
	"math"
	"testing"
)

func TestResidualReplacementReducesDrift(t *testing.T) {
	// With periodic replacement the recurrence residual is re-anchored to
	// b − A·x, so |drift| (Eq. 2) must not grow beyond the plain solver's.
	plain := baseConfig(t)
	plainRes := solveOK(t, plain)

	rr := baseConfig(t)
	rr.ResidualReplacementInterval = 20
	rrRes := solveOK(t, rr)

	if math.Abs(rrRes.Drift) > math.Abs(plainRes.Drift)+1e-12 {
		t.Fatalf("replacement drift %g worse than plain %g", rrRes.Drift, plainRes.Drift)
	}
	if !rrRes.Converged {
		t.Fatal("did not converge with residual replacement")
	}
	checkSolution(t, rr, rrRes, 5e-8)
}

func TestResidualReplacementCostsTime(t *testing.T) {
	plain := baseConfig(t)
	plainRes := solveOK(t, plain)
	rr := baseConfig(t)
	rr.ResidualReplacementInterval = 10
	rrRes := solveOK(t, rr)
	if rrRes.SimTime <= plainRes.SimTime {
		t.Fatalf("replacement must cost modeled time: %g vs %g", rrRes.SimTime, plainRes.SimTime)
	}
}

func TestResidualReplacementWithESRPRecovery(t *testing.T) {
	// The replacement keeps p = z + β·p_prev valid, so exact reconstruction
	// must still hold along the replaced trajectory.
	cfg := baseConfig(t)
	cfg.ResidualReplacementInterval = 15
	cfg.Strategy = StrategyESRP
	cfg.T = 10
	cfg.Phi = 1
	cfg.Failures = []FailureSpec{{Iteration: 38, Ranks: []int{3}}}
	res := checkExactRecovery(t, cfg, 3)
	if res.RecoveredAt != 31 {
		t.Fatalf("RecoveredAt = %d, want 31", res.RecoveredAt)
	}
}

func TestResidualReplacementDeterministic(t *testing.T) {
	cfg := baseConfig(t)
	cfg.ResidualReplacementInterval = 25
	r1 := solveOK(t, cfg)
	r2 := solveOK(t, cfg)
	if r1.Iterations != r2.Iterations || r1.SimTime != r2.SimTime {
		t.Fatalf("nondeterministic: %d/%g vs %d/%g", r1.Iterations, r1.SimTime, r2.Iterations, r2.SimTime)
	}
}
