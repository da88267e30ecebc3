package core

import (
	"math"
	"strings"
	"testing"

	"esrp/internal/cluster"
	"esrp/internal/matgen"
	"esrp/internal/vec"
)

func pipeBaseConfig(t *testing.T) Config {
	t.Helper()
	a := matgen.Poisson2D(48, 48)
	b, _ := matgen.RHSForSolution(a, 12)
	return Config{
		A: a, B: b, Nodes: 8,
		Rtol:      1e-8,
		CostModel: fastModel(),
	}
}

func solvePipeOK(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := SolvePipelined(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("pipelined solver did not converge in %d iterations (relres %g)", res.Iterations, res.RelResidual)
	}
	if len(res.Kernels) != cfg.Nodes {
		t.Fatalf("Result.Kernels has %d entries for %d nodes", len(res.Kernels), cfg.Nodes)
	}
	return res
}

func TestPipelinedMatchesStandardSolution(t *testing.T) {
	cfg := pipeBaseConfig(t)
	std := solveOK(t, cfg)
	pipe := solvePipeOK(t, cfg)
	if d := vec.MaxAbsDiff(std.X, pipe.X); d > 1e-6 {
		t.Fatalf("pipelined solution deviates from standard by %g", d)
	}
	// Same Krylov process, same preconditioner: iteration counts must be
	// close (pipelined checks convergence at the top of the loop, and its
	// recurrences drift slightly differently).
	if diff := pipe.Iterations - std.Iterations; diff < -3 || diff > 10 {
		t.Fatalf("pipelined iterations %d vs standard %d", pipe.Iterations, std.Iterations)
	}
	checkSolution(t, cfg, pipe, 5e-8)
}

func TestPipelinedHalvesCollectives(t *testing.T) {
	// Standard PCG synchronizes twice per iteration (p·Ap, then r·z with
	// ‖r‖²); pipelined PCG once. Message counts per iteration must reflect
	// that (both also run one halo exchange per iteration).
	cfg := pipeBaseConfig(t)
	std := solveOK(t, cfg)
	pipe := solvePipeOK(t, cfg)
	stdPerIter := float64(std.MsgsSent) / float64(std.Iterations)
	pipePerIter := float64(pipe.MsgsSent) / float64(pipe.Iterations)
	if pipePerIter >= stdPerIter {
		t.Fatalf("pipelined messages/iter %g not below standard %g", pipePerIter, stdPerIter)
	}
}

func TestPipelinedWinsAtHighLatency(t *testing.T) {
	// In a latency-dominated regime (the method's design point) the single
	// collective per iteration must make the modeled runtime per iteration
	// cheaper than standard PCG's.
	model := cluster.DefaultCostModel()
	model.Latency *= 100
	cfg := pipeBaseConfig(t)
	cfg.CostModel = &model
	std := solveOK(t, cfg)
	pipe := solvePipeOK(t, cfg)
	stdPerIter := std.SimTime / float64(std.Iterations)
	pipePerIter := pipe.SimTime / float64(pipe.Iterations)
	if pipePerIter >= stdPerIter {
		t.Fatalf("pipelined %g s/iter not below standard %g s/iter at high latency", pipePerIter, stdPerIter)
	}
}

func TestPipelinedIMCRRecovery(t *testing.T) {
	cfg := pipeBaseConfig(t)
	cfg.Strategy = StrategyIMCR
	cfg.T = 10
	cfg.Phi = 1
	ref := cfg
	ref.Strategy = StrategyNone
	ref.T, ref.Phi = 0, 0
	refRes := solvePipeOK(t, ref)

	cfg.Failure = &FailureSpec{Iteration: refRes.Iterations / 2, Ranks: []int{3}}
	res := solvePipeOK(t, cfg)
	if !res.Recovered {
		t.Fatal("failure did not trigger recovery")
	}
	if res.Iterations < refRes.Iterations-1 || res.Iterations > refRes.Iterations+3 {
		t.Fatalf("trajectory length %d, reference %d", res.Iterations, refRes.Iterations)
	}
	if d := vec.MaxAbsDiff(res.X, refRes.X); d > 1e-6 {
		t.Fatalf("recovered pipelined solution deviates by %g", d)
	}
	if res.WastedIters <= 0 {
		t.Fatalf("rollback must waste iterations, got %d", res.WastedIters)
	}
}

func TestPipelinedIMCRMultipleFailures(t *testing.T) {
	cfg := pipeBaseConfig(t)
	cfg.Strategy = StrategyIMCR
	cfg.T = 10
	cfg.Phi = 2
	cfg.Failure = &FailureSpec{Iteration: 35, Ranks: []int{4, 5}}
	res := solvePipeOK(t, cfg)
	if !res.Recovered || res.RecoveredAt != 30 {
		t.Fatalf("recovered=%v at %d, want rollback to 30", res.Recovered, res.RecoveredAt)
	}
	checkSolution(t, cfg, res, 5e-8)
}

func TestPipelinedLocalRestartAfterFailure(t *testing.T) {
	cfg := pipeBaseConfig(t)
	cfg.Failure = &FailureSpec{Iteration: 40, Ranks: []int{2}}
	res := solvePipeOK(t, cfg)
	checkSolution(t, cfg, res, 5e-8)
	if !res.Recovered {
		t.Fatal("local restart must be recorded as recovery")
	}
}

func TestPipelinedFailureBeforeFirstCheckpoint(t *testing.T) {
	cfg := pipeBaseConfig(t)
	cfg.Strategy = StrategyIMCR
	cfg.T = 50
	cfg.Phi = 1
	cfg.Failure = &FailureSpec{Iteration: 5, Ranks: []int{1}}
	res := solvePipeOK(t, cfg)
	checkSolution(t, cfg, res, 5e-8)
}

// TestPipelinedRestartKeepsSurvivingIterand: a local restart continues from
// the iterand the survivors hold, not from x0 — the restarted residual is
// not the initial one again.
func TestPipelinedRestartKeepsSurvivingIterand(t *testing.T) {
	cfg := pipeBaseConfig(t)
	cfg.RecordResiduals = true
	cfg.X0 = make([]float64, cfg.A.Rows)
	for i := range cfg.X0 {
		cfg.X0[i] = 1
	}
	const at = 40
	cfg.Failure = &FailureSpec{Iteration: at, Ranks: []int{2}}
	res := solvePipeOK(t, cfg)
	checkSolution(t, cfg, res, 5e-8)
	// One sample per step head: steps 0..at, then the restarted iteration.
	if first, restarted := res.Residuals[0], res.Residuals[at+1]; restarted == first {
		t.Fatalf("restart at iteration %d reproduced the initial residual %g: x was reset to x0", at, first)
	}
}

func TestPipelinedRejectsUnsupportedStrategies(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"esrp", func(cfg *Config) { cfg.Strategy, cfg.T = StrategyESRP, 10 },
			"core: pipelined PCG supports strategies none and IMCR, got ESRP"},
		{"esr", func(cfg *Config) { cfg.Strategy = StrategyESR },
			"core: pipelined PCG supports strategies none and IMCR, got ESR"},
		{"no-spare", func(cfg *Config) { cfg.NoSpareNodes = true },
			"core: pipelined PCG does not support NoSpareNodes"},
		{"residual-replacement", func(cfg *Config) { cfg.ResidualReplacementInterval = 5 },
			"core: pipelined PCG does not support ResidualReplacementInterval"},
	} {
		cfg := pipeBaseConfig(t)
		tc.mut(&cfg)
		_, err := SolvePipelined(cfg)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: got error %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestPipelinedDeterministic(t *testing.T) {
	cfg := pipeBaseConfig(t)
	r1 := solvePipeOK(t, cfg)
	r2 := solvePipeOK(t, cfg)
	if r1.Iterations != r2.Iterations || r1.SimTime != r2.SimTime {
		t.Fatalf("nondeterministic: %d/%g vs %d/%g", r1.Iterations, r1.SimTime, r2.Iterations, r2.SimTime)
	}
	if d := vec.MaxAbsDiff(r1.X, r2.X); d != 0 {
		t.Fatalf("solutions differ by %g", d)
	}
}

func TestPipelinedDriftFinite(t *testing.T) {
	// The deeper recurrences are known to drift more than standard PCG;
	// the drift must still be small at these iteration counts.
	cfg := pipeBaseConfig(t)
	res := solvePipeOK(t, cfg)
	if math.IsNaN(res.Drift) || math.Abs(res.Drift) > 1e-3 {
		t.Fatalf("pipelined drift %g out of range", res.Drift)
	}
}
