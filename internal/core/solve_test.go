package core

import (
	"math"
	"os"
	"strings"
	"testing"

	"esrp/internal/cluster"
	"esrp/internal/matgen"
	"esrp/internal/obs"
	"esrp/internal/precond"
	"esrp/internal/sparse"
	"esrp/internal/vec"
)

func fastModel() *cluster.CostModel {
	m := cluster.DefaultCostModel()
	return &m
}

// testKernel returns the SpMV kernel kind the suite runs under: KernelAuto
// by default, or a forced layout from ESRP_TEST_KERNEL — how CI's
// kernel-matrix leg pins the golden trajectories and alloc gates once per
// forced kernel so the fallback paths cannot rot.
func testKernel(t *testing.T) sparse.KernelKind {
	t.Helper()
	s := os.Getenv("ESRP_TEST_KERNEL")
	if s == "" {
		return sparse.KernelAuto
	}
	for kind := sparse.KernelAuto; kind <= sparse.KernelBand; kind++ {
		if kind.String() == s {
			return kind
		}
	}
	t.Fatalf("ESRP_TEST_KERNEL=%q: want auto, csr or band", s)
	return sparse.KernelAuto
}

// baseConfig returns a small but non-trivial problem: a 2304-row Poisson
// system on 8 nodes with block Jacobi, which the reference solver needs
// ~105 iterations for — enough room to inject failures mid-solve.
func baseConfig(t *testing.T) Config {
	t.Helper()
	a := matgen.Poisson2D(48, 48)
	b, _ := matgen.RHSForSolution(a, 12)
	return Config{
		A: a, B: b, Nodes: 8,
		Rtol:        1e-8,
		PrecondKind: precond.BlockJacobi,
		MaxBlock:    10,
		CostModel:   fastModel(),
		kernel:      testKernel(t),
	}
}

func solveOK(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Solve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d iterations (relres %g)", res.Iterations, res.RelResidual)
	}
	return res
}

func checkSolution(t *testing.T, cfg Config, res *Result, tol float64) {
	t.Helper()
	// ‖b − A·x‖/‖b‖ must honor the convergence tolerance.
	if rel := trueRelResidual(cfg, res.X); rel > tol {
		t.Fatalf("true relative residual %g > %g", rel, tol)
	}
}

// trueRelResidual is ‖b − A·x‖/‖b‖, computed afresh rather than taken from
// the solver's recurrence.
func trueRelResidual(cfg Config, x []float64) float64 {
	ax := make([]float64, cfg.A.Rows)
	cfg.A.MulVec(ax, x)
	num, den := 0.0, 0.0
	for i := range ax {
		d := cfg.B[i] - ax[i]
		num += d * d
		den += cfg.B[i] * cfg.B[i]
	}
	return math.Sqrt(num / den)
}

func TestReferenceSolveBase(t *testing.T) {
	cfg := baseConfig(t)
	res := solveOK(t, cfg)
	checkSolution(t, cfg, res, 5e-8)
	if res.Recovered || res.RecoveryTime != 0 || res.WastedIters != 0 {
		t.Fatal("failure-free run must report no recovery")
	}
	if res.SimTime <= 0 || res.BytesSent <= 0 {
		t.Fatal("modeled time and traffic must be positive")
	}
	if res.TotalSteps != res.Iterations {
		t.Fatalf("TotalSteps %d != Iterations %d without failures", res.TotalSteps, res.Iterations)
	}
}

func TestReferenceSolvePoissonJacobiAndNone(t *testing.T) {
	a := matgen.Poisson2D(16, 16)
	b, xstar := matgen.RHSForSolution(a, 3)
	for _, pk := range []precond.Kind{precond.None, precond.Jacobi, precond.BlockJacobi} {
		cfg := Config{A: a, B: b, Nodes: 4, Rtol: 1e-10, PrecondKind: pk, CostModel: fastModel()}
		res := solveOK(t, cfg)
		if d := vec.MaxAbsDiff(res.X, xstar); d > 1e-6 {
			t.Fatalf("%v: solution off by %g", pk, d)
		}
	}
}

func TestPreconditioningReducesIterations(t *testing.T) {
	// BandedSPD has strong diagonal variation but moderate conditioning, so
	// plain CG converges and diagonal-based preconditioning visibly helps.
	// (The EmiliaLike analog is deliberately too ill-conditioned for
	// unpreconditioned CG, like the real Emilia_923.)
	a := matgen.BandedSPD(400, 6, 4)
	b := matgen.RHSOnes(a.Rows)
	iters := map[precond.Kind]int{}
	for _, pk := range []precond.Kind{precond.None, precond.BlockJacobi} {
		cfg := Config{A: a, B: b, Nodes: 4, Rtol: 1e-8, PrecondKind: pk, CostModel: fastModel()}
		iters[pk] = solveOK(t, cfg).Iterations
	}
	if iters[precond.BlockJacobi] >= iters[precond.None] {
		t.Fatalf("block Jacobi (%d iters) should beat plain CG (%d iters)",
			iters[precond.BlockJacobi], iters[precond.None])
	}
}

func TestSolveDeterministic(t *testing.T) {
	cfg := baseConfig(t)
	r1 := solveOK(t, cfg)
	r2 := solveOK(t, cfg)
	if r1.Iterations != r2.Iterations || r1.SimTime != r2.SimTime {
		t.Fatalf("nondeterministic: %d/%g vs %d/%g", r1.Iterations, r1.SimTime, r2.Iterations, r2.SimTime)
	}
	if d := vec.MaxAbsDiff(r1.X, r2.X); d != 0 {
		t.Fatalf("solutions differ by %g between identical runs", d)
	}
}

// ESRP without failures must follow bit-for-bit the reference trajectory:
// the augmented exchange moves extra data but performs identical arithmetic.
func TestESRPFailureFreeTrajectoryIdentical(t *testing.T) {
	ref := baseConfig(t)
	refRes := solveOK(t, ref)

	esrp := baseConfig(t)
	esrp.Strategy = StrategyESRP
	esrp.T = 20
	esrp.Phi = 3
	res := solveOK(t, esrp)

	if res.Iterations != refRes.Iterations {
		t.Fatalf("iterations %d != reference %d", res.Iterations, refRes.Iterations)
	}
	if d := vec.MaxAbsDiff(res.X, refRes.X); d != 0 {
		t.Fatalf("ESRP failure-free trajectory deviates by %g", d)
	}
	if res.SimTime <= refRes.SimTime {
		t.Fatal("redundant storage must cost modeled time")
	}
}

func TestESRFailureFreeCostsMoreThanESRP(t *testing.T) {
	mk := func(strategy Strategy, T int) float64 {
		cfg := baseConfig(t)
		cfg.Strategy = strategy
		cfg.T = T
		cfg.Phi = 3
		return solveOK(t, cfg).SimTime
	}
	esr := mk(StrategyESR, 1)
	esrp := mk(StrategyESRP, 20)
	if esrp >= esr {
		t.Fatalf("ESRP (%g s) must be cheaper than ESR (%g s) failure-free", esrp, esr)
	}
}

func referenceFor(t *testing.T, cfg Config) *Result {
	t.Helper()
	ref := cfg
	ref.Strategy = StrategyNone
	ref.T, ref.Phi = 0, 0
	ref.Failures = nil
	ref.NoSpareNodes = false
	return solveOK(t, ref)
}

// The reconstruction-exactness property: after a failure and recovery, the
// solver must converge to the same solution in the same number of
// trajectory iterations as the undisturbed solver (up to floating-point
// perturbation from the inner solves).
func checkExactRecovery(t *testing.T, cfg Config, maxExtraIters int) *Result {
	t.Helper()
	refRes := referenceFor(t, cfg)
	res := solveOK(t, cfg)
	if !res.Recovered {
		t.Fatal("failure did not trigger recovery")
	}
	if res.Iterations < refRes.Iterations-1 || res.Iterations > refRes.Iterations+maxExtraIters {
		t.Fatalf("trajectory length %d, reference %d (max extra %d)",
			res.Iterations, refRes.Iterations, maxExtraIters)
	}
	if d := vec.MaxAbsDiff(res.X, refRes.X); d > 1e-6 {
		t.Fatalf("recovered solution deviates from reference by %g", d)
	}
	checkSolution(t, cfg, res, 5e-8)
	if res.RecoveryTime <= 0 {
		t.Fatal("recovery must cost modeled time")
	}
	return res
}

// The same exactness property on the 27-point structural stencil the
// paper constellation uses (the EmiliaLike analog), at its natural
// iteration count.
func TestESRPRecoveryOnEmiliaLikeStencil(t *testing.T) {
	a := matgen.EmiliaLike(8, 8, 8, 11) // 512 rows, C ≈ 32
	b, _ := matgen.RHSForSolution(a, 12)
	cfg := Config{
		A: a, B: b, Nodes: 8, Rtol: 1e-8,
		PrecondKind: precond.BlockJacobi, MaxBlock: 10,
		CostModel: fastModel(),
		Strategy:  StrategyESRP, T: 5, Phi: 2,
		Failures: []FailureSpec{{Iteration: 18, Ranks: []int{3, 4}}},
	}
	res := checkExactRecovery(t, cfg, 3)
	if res.RecoveredAt != 16 {
		t.Fatalf("RecoveredAt = %d, want 16", res.RecoveredAt)
	}
}

// IMCR recovery is a pure data transfer; ESRP recovery solves inner systems.
// The modeled reconstruction cost must reflect that (a headline observation
// of the paper's Tables 2 and 3).
func TestIMCRRecoveryCheaperThanESRP(t *testing.T) {
	mk := func(s Strategy) float64 {
		cfg := baseConfig(t)
		cfg.Strategy = s
		cfg.T = 10
		cfg.Phi = 1
		cfg.Failures = []FailureSpec{{Iteration: 38, Ranks: []int{3}}}
		return solveOK(t, cfg).RecoveryTime
	}
	imcr, esrp := mk(StrategyIMCR), mk(StrategyESRP)
	if imcr >= esrp {
		t.Fatalf("IMCR recovery (%g s) should be cheaper than ESRP reconstruction (%g s)", imcr, esrp)
	}
}

func TestNoneLocalRestartConvergesSlowly(t *testing.T) {
	cfg := baseConfig(t)
	refIters := solveOK(t, cfg).Iterations
	cfg.Failures = []FailureSpec{{Iteration: refIters / 2, Ranks: []int{3}}}
	res := solveOK(t, cfg)
	checkSolution(t, cfg, res, 5e-8)
	if !res.Recovered {
		t.Fatal("restart must be reported as a recovery event")
	}
	if res.Iterations <= refIters {
		t.Fatalf("local restart (%d iters) should be slower than the undisturbed solver (%d)",
			res.Iterations, refIters)
	}
}

// TestLocalRestartKeepsSurvivingIterand: a StrategyNone local restart
// continues from the iterand the survivors hold, not from Config.X0 — the
// first residual sampled after the restart is not the solve's first one.
func TestLocalRestartKeepsSurvivingIterand(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Observe = &obs.Options{Series: true}
	cfg.X0 = make([]float64, cfg.A.Rows)
	for i := range cfg.X0 {
		cfg.X0[i] = 1
	}
	const at = 40
	cfg.Failures = []FailureSpec{{Iteration: at, Ranks: []int{2}}}
	res := solveOK(t, cfg)
	checkSolution(t, cfg, res, 5e-8)
	if !res.Recovered || res.RecoveredAt != at {
		t.Fatalf("recovered=%v at %d, want a restart at %d", res.Recovered, res.RecoveredAt, at)
	}
	// One sample per completed step: iterations 0..at−1, then the restarted
	// iteration at (the interrupted step samples nothing).
	resid := residualsOf(res)
	if first, restarted := resid[0], resid[at]; restarted == first {
		t.Fatalf("restart at iteration %d reproduced the first residual %g: x was reset to x0", at, first)
	}
}

// TestRecordResiduals: with the series on, a failure-free solve records one
// residual per loop step and the last one is below rtol.
func TestRecordResiduals(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Observe = &obs.Options{Series: true}
	res := solveOK(t, cfg)
	resid := residualsOf(res)
	if len(resid) != res.TotalSteps {
		t.Fatalf("recorded %d residuals, want %d", len(resid), res.TotalSteps)
	}
	if last := resid[len(resid)-1]; last >= cfg.Rtol {
		t.Fatalf("final recorded residual %g ≥ rtol", last)
	}
}

func TestConfigValidation(t *testing.T) {
	a := matgen.Poisson2D(4, 4)
	b := matgen.RHSOnes(16)
	bad := []Config{
		{A: nil, B: b, Nodes: 2},
		{A: a, B: b[:3], Nodes: 2},
		{A: a, B: b, Nodes: 0},
		{A: a, B: b, Nodes: 32},                               // more nodes than rows
		{A: a, B: b, Nodes: 2, X0: make([]float64, 5)},        // bad x0
		{A: a, B: b, Nodes: 2, Strategy: StrategyESRP, T: 2},  // T too small
		{A: a, B: b, Nodes: 2, Strategy: StrategyIMCR, T: 0},  // T missing
		{A: a, B: b, Nodes: 2, Strategy: StrategyESR, Phi: 5}, // phi ≥ nodes
		{A: a, B: b, Nodes: 4, Strategy: StrategyESR, Phi: 1, Failures: []FailureSpec{{Iteration: 1, Ranks: []int{1, 2}}}}, // psi > phi
		{A: a, B: b, Nodes: 4, Strategy: StrategyESR, Phi: 3, Failures: []FailureSpec{{Iteration: 1, Ranks: []int{1, 3}}}}, // non-contiguous
		{A: a, B: b, Nodes: 4, Strategy: StrategyESR, Phi: 3, Failures: []FailureSpec{{Iteration: -1, Ranks: []int{1}}}},   // bad iteration
		{A: a, B: b, Nodes: 4, Strategy: StrategyESR, Phi: 3, Failures: []FailureSpec{{Iteration: 1, Ranks: []int{7}}}},    // bad rank
		{A: a, B: b, Nodes: 4, Strategy: StrategyESR, Phi: 3, Failures: []FailureSpec{{Iteration: 1, Ranks: nil}}},         // no ranks
	}
	for i, cfg := range bad {
		if _, err := Solve(cfg); err == nil {
			t.Fatalf("config %d must be rejected", i)
		}
	}
	rect := sparse.NewBuilder(3, 4)
	rect.Add(0, 0, 1)
	if _, err := Solve(Config{A: rect.Build(), B: make([]float64, 3), Nodes: 1}); err == nil {
		t.Fatal("rectangular matrix must be rejected")
	}
}

// A negative iteration cap, block size, tolerance, φ or residual
// replacement interval is an error; zero takes the default (10·rows, the
// paper's block size 10, 1e-8, φ = 1 for redundant strategies, no
// replacement).
func TestConfigNegativeCapsAreErrors(t *testing.T) {
	a := matgen.Poisson2D(4, 4)
	b := matgen.RHSOnes(16)
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{Config{A: a, B: b, Nodes: 2, MaxIter: -5}, "iteration cap must be ≥ 0"},
		{Config{A: a, B: b, Nodes: 2, MaxBlock: -3}, "block size must be ≥ 0"},
		{Config{A: a, B: b, Nodes: 2, Rtol: -1}, "tolerance must be ≥ 0"},
		{Config{A: a, B: b, Nodes: 2, Strategy: StrategyESRP, T: 5, Phi: -2}, "phi must be ≥ 0"},
		{Config{A: a, B: b, Nodes: 2, Phi: -1}, "phi must be ≥ 0"},
		{Config{A: a, B: b, Nodes: 2, ResidualReplacementInterval: -3}, "residual replacement interval must be ≥ 0"},
	} {
		if _, err := Solve(c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("MaxIter %d, MaxBlock %d, Rtol %g, Phi %d, RR %d: err = %v, want one saying %q",
				c.cfg.MaxIter, c.cfg.MaxBlock, c.cfg.Rtol, c.cfg.Phi, c.cfg.ResidualReplacementInterval, err, c.want)
		}
	}
	got, err := Config{A: a, B: b, Nodes: 2}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxIter != 160 || got.MaxBlock != 10 || got.Rtol != 1e-8 || got.ResidualReplacementInterval != 0 {
		t.Fatalf("zero caps default to MaxIter %d, MaxBlock %d, Rtol %g, RR %d; want 160, 10, 1e-8, 0",
			got.MaxIter, got.MaxBlock, got.Rtol, got.ResidualReplacementInterval)
	}
	if got, err := (Config{A: a, B: b, Nodes: 2, Strategy: StrategyESRP, T: 5}).withDefaults(); err != nil || got.Phi != 1 {
		t.Fatalf("zero φ under ESRP: Phi %d, err %v; want 1, nil", got.Phi, err)
	}
}

// A non-finite tolerance, a negative or non-finite detection time and a
// negative or non-finite inner tolerance are errors. They used to solve: a
// negative detection time made RecoveryTime negative, NaN and +Inf made it or
// SimTime non-finite, a NaN inner tolerance ran the inner PCG to its cap, and
// a NaN tolerance ran to the iteration cap with a NaN residual. A zero inner
// tolerance still takes the paper's 1e-14.
func TestConfigNonFiniteSettingsAreErrors(t *testing.T) {
	a := matgen.Poisson2D(4, 4)
	b := matgen.RHSOnes(16)
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		set  func(*Config)
		want string
	}{
		{"Rtol NaN", func(c *Config) { c.Rtol = nan }, "tolerance must be finite"},
		{"Rtol +Inf", func(c *Config) { c.Rtol = inf }, "tolerance must be finite"},
		{"Rtol -Inf", func(c *Config) { c.Rtol = -inf }, "tolerance must be finite"},
		{"DetectionTime -1e-3", func(c *Config) { c.DetectionTime = -1e-3 }, "detection time must be finite and ≥ 0"},
		{"DetectionTime NaN", func(c *Config) { c.DetectionTime = nan }, "detection time must be finite and ≥ 0"},
		{"DetectionTime +Inf", func(c *Config) { c.DetectionTime = inf }, "detection time must be finite and ≥ 0"},
		{"InnerRtol -1e-14", func(c *Config) { c.InnerRtol = -1e-14 }, "inner tolerance must be finite and ≥ 0"},
		{"InnerRtol NaN", func(c *Config) { c.InnerRtol = nan }, "inner tolerance must be finite and ≥ 0"},
		{"InnerRtol +Inf", func(c *Config) { c.InnerRtol = inf }, "inner tolerance must be finite and ≥ 0"},
	} {
		cfg := Config{A: a, B: b, Nodes: 4, Strategy: StrategyESRP, T: 5, Phi: 1,
			Failures: []FailureSpec{{Iteration: 12, Ranks: []int{1}}}}
		c.set(&cfg)
		if _, err := Solve(cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one saying %q", c.name, err, c.want)
		}
	}
	got, err := Config{A: a, B: b, Nodes: 2}.withDefaults()
	if err != nil || got.InnerRtol != 1e-14 {
		t.Fatalf("zero InnerRtol: %g, err %v; want 1e-14, nil", got.InnerRtol, err)
	}
}

func TestStrategyStringParse(t *testing.T) {
	for _, s := range []Strategy{StrategyNone, StrategyESR, StrategyESRP, StrategyIMCR} {
		p, err := ParseStrategy(s.String())
		if err != nil {
			t.Fatal(err)
		}
		if p != s {
			t.Fatalf("round trip %v → %v", s, p)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Fatal("unknown strategy must error")
	}
}

func TestX0InitialGuess(t *testing.T) {
	a := matgen.Poisson2D(8, 8)
	b, xstar := matgen.RHSForSolution(a, 9)
	cfg := Config{A: a, B: b, Nodes: 2, Rtol: 1e-10, PrecondKind: precond.Jacobi,
		X0: xstar, CostModel: fastModel()}
	res := solveOK(t, cfg)
	if res.Iterations > 1 {
		t.Fatalf("starting at the solution should converge immediately, took %d", res.Iterations)
	}
}

func TestSingleNodeCluster(t *testing.T) {
	a := matgen.Poisson2D(6, 6)
	b := matgen.RHSOnes(36)
	cfg := Config{A: a, B: b, Nodes: 1, PrecondKind: precond.BlockJacobi, CostModel: fastModel()}
	res := solveOK(t, cfg)
	checkSolution(t, cfg, res, 5e-8)
}

func TestZeroRHS(t *testing.T) {
	a := matgen.Poisson2D(6, 6)
	cfg := Config{A: a, B: make([]float64, 36), Nodes: 2, CostModel: fastModel()}
	res := solveOK(t, cfg)
	if vec.Norm2(res.X) != 0 {
		t.Fatalf("Ax=0 must give x=0, got norm %g", vec.Norm2(res.X))
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

// Timeline validation: out-of-order events, duplicate ranks, bad spare
// pools.
func TestMultiEventValidation(t *testing.T) {
	a := matgen.Poisson2D(16, 16)
	b := matgen.RHSOnes(a.Rows)
	bad := []Config{
		{A: a, B: b, Nodes: 4, Strategy: StrategyESR, Phi: 1, Failures: []FailureSpec{
			{Iteration: 20, Ranks: []int{1}}, {Iteration: 10, Ranks: []int{2}}}}, // out of order
		{A: a, B: b, Nodes: 4, Strategy: StrategyESR, Phi: 1, Failures: []FailureSpec{
			{Iteration: 10, Ranks: []int{1}}, {Iteration: 10, Ranks: []int{2}}}}, // duplicate iteration
		{A: a, B: b, Nodes: 4, Strategy: StrategyESR, Phi: 2, Failures: []FailureSpec{
			{Iteration: 10, Ranks: []int{1, 1}}}}, // duplicate rank
		{A: a, B: b, Nodes: 4, Strategy: StrategyESR, Phi: 1, Spares: -1},                    // negative pool
		{A: a, B: b, Nodes: 4, Strategy: StrategyIMCR, T: 5, Phi: 1, Spares: 2},              // finite pool needs ESR/ESRP
		{A: a, B: b, Nodes: 4, Strategy: StrategyESR, Phi: 1, Spares: 2, NoSpareNodes: true}, // pool vs no-spare
	}
	for i, cfg := range bad {
		if _, err := Solve(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestNoSpareConfigValidation(t *testing.T) {
	a := matgen.Poisson2D(8, 8)
	b := matgen.RHSOnes(a.Rows)
	_, err := Solve(Config{
		A: a, B: b, Nodes: 4,
		Strategy: StrategyIMCR, T: 10, Phi: 1,
		NoSpareNodes: true,
	})
	if err == nil {
		t.Fatal("NoSpareNodes with IMCR must be rejected")
	}
}
