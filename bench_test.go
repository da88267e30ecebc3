// Benchmarks regenerating the paper's tables and figures (reduced scale so
// `go test -bench=. -benchmem` completes in minutes; run cmd/esrpbench for
// the full default-scale constellation), plus ablation benches for the
// design choices called out in DESIGN.md §5.
//
// Reported custom metrics:
//
//	simsec/solve      simulated (LogGP-modeled) runtime of one solve
//	overhead%         relative overhead over the non-resilient reference
//	iters             PCG iterations of the final trajectory
package esrp_test

import (
	"testing"
	"time"

	"esrp"
	"esrp/internal/aspmv"
	"esrp/internal/dist"
)

// benchEmilia returns the reduced-scale Emilia_923 analog shared by the
// benchmarks: 4 096 rows, ~100k nnz.
func benchEmilia() *esrp.CSR { return esrp.EmiliaLike(16, 16, 16, 923) }

// benchAudikw returns the reduced-scale audikw_1 analog: 5 184 rows, ~390k
// nnz, denser rows. (12³ vertices keep the reference iteration count above
// 2×T for every benchmarked interval, so failure injection always lands
// after a completed storage stage.)
func benchAudikw() *esrp.CSR { return esrp.AudikwLike(12, 12, 12, 3, 944) }

const benchNodes = 16

// BenchmarkTable1Matrices measures the matrix generators that stand in for
// the paper's Table 1 inventory.
func BenchmarkTable1Matrices(b *testing.B) {
	b.Run("EmiliaLike", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := benchEmilia()
			b.ReportMetric(float64(a.NNZ()), "nnz")
		}
	})
	b.Run("AudikwLike", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := benchAudikw()
			b.ReportMetric(float64(a.NNZ()), "nnz")
		}
	})
}

// benchConstellation runs the reduced constellation of Tables 2/3 for one
// matrix and reports the headline metrics.
func benchConstellation(b *testing.B, name string, a *esrp.CSR) *esrp.ExperimentReport {
	b.Helper()
	var rep *esrp.ExperimentReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = esrp.RunExperiment(esrp.ExperimentSpec{
			Name:   name,
			Matrix: a,
			Nodes:  benchNodes,
			Ts:     []int{1, 20, 50},
			Phis:   []int{1, 3},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.Ref.SimTime, "simsec/ref")
	b.ReportMetric(float64(rep.Ref.Iterations), "iters")
	return rep
}

// BenchmarkTable2EmiliaLike regenerates the Table 2 constellation (reduced
// sweep) for the Emilia analog.
func BenchmarkTable2EmiliaLike(b *testing.B) {
	rep := benchConstellation(b, "Emilia-like", benchEmilia())
	if len(rep.ESRP) == 0 || len(rep.IMCR) == 0 {
		b.Fatal("empty constellation")
	}
}

// BenchmarkTable3AudikwLike regenerates the Table 3 constellation (reduced
// sweep) for the audikw analog.
func BenchmarkTable3AudikwLike(b *testing.B) {
	rep := benchConstellation(b, "audikw-like", benchAudikw())
	if len(rep.ESRP) == 0 || len(rep.IMCR) == 0 {
		b.Fatal("empty constellation")
	}
}

// BenchmarkTable4ResidualDrift measures the drift metric (Eq. 2) of
// failure-free and failure runs, the data behind Table 4.
func BenchmarkTable4ResidualDrift(b *testing.B) {
	a := benchEmilia()
	rhs := esrp.RHSOnes(a.Rows)
	for i := 0; i < b.N; i++ {
		ref, err := esrp.Solve(esrp.Config{A: a, B: rhs, Nodes: benchNodes})
		if err != nil {
			b.Fatal(err)
		}
		fr, err := esrp.Solve(esrp.Config{
			A: a, B: rhs, Nodes: benchNodes,
			Strategy: esrp.StrategyESRP, T: 20, Phi: 1,
			Failures: []esrp.FailureSpec{{Iteration: ref.Iterations / 2, Ranks: []int{0}}},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ref.Drift, "refdrift")
		b.ReportMetric(fr.Drift, "faildrift")
	}
}

// benchFigurePoint measures one figure marker: a (strategy, T, φ) pair with
// and without a failure, reporting the overhead percentages of Fig. 2/3.
func benchFigurePoint(b *testing.B, a *esrp.CSR, strat esrp.Strategy, t, phi int, fail bool) {
	b.Helper()
	rhs := esrp.RHSOnes(a.Rows)
	ref, err := esrp.Solve(esrp.Config{A: a, B: rhs, Nodes: benchNodes})
	if err != nil {
		b.Fatal(err)
	}
	cfg := esrp.Config{
		A: a, B: rhs, Nodes: benchNodes,
		Strategy: strat, T: t, Phi: phi,
	}
	if fail {
		cfg.Failures = []esrp.FailureSpec{{Iteration: ref.Iterations / 2, Ranks: locRanks(phi)}}
	}
	b.ResetTimer()
	var sim float64
	for i := 0; i < b.N; i++ {
		res, err := esrp.Solve(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("did not converge")
		}
		sim = res.SimTime
	}
	b.ReportMetric(sim, "simsec/solve")
	b.ReportMetric(100*(sim-ref.SimTime)/ref.SimTime, "overhead%")
}

func locRanks(psi int) []int {
	ranks := make([]int, psi)
	for i := range ranks {
		ranks[i] = i
	}
	return ranks
}

// BenchmarkFig2EmiliaLike regenerates the Fig. 2 series points (ESRP vs ESR
// vs IMCR across T, failure-free and with failures) on the Emilia analog.
func BenchmarkFig2EmiliaLike(b *testing.B) {
	a := benchEmilia()
	for _, sub := range []struct {
		name  string
		strat esrp.Strategy
		t     int
		fail  bool
	}{
		{"ESR/ff", esrp.StrategyESR, 1, false},
		{"ESR/fail", esrp.StrategyESR, 1, true},
		{"ESRP-T20/ff", esrp.StrategyESRP, 20, false},
		{"ESRP-T20/fail", esrp.StrategyESRP, 20, true},
		{"ESRP-T50/ff", esrp.StrategyESRP, 50, false},
		{"ESRP-T50/fail", esrp.StrategyESRP, 50, true},
		{"IMCR-T20/ff", esrp.StrategyIMCR, 20, false},
		{"IMCR-T20/fail", esrp.StrategyIMCR, 20, true},
		{"IMCR-T50/ff", esrp.StrategyIMCR, 50, false},
		{"IMCR-T50/fail", esrp.StrategyIMCR, 50, true},
	} {
		b.Run(sub.name, func(b *testing.B) {
			benchFigurePoint(b, a, sub.strat, sub.t, 1, sub.fail)
		})
	}
}

// BenchmarkFig3AudikwLike regenerates the Fig. 3 series points on the audikw
// analog.
func BenchmarkFig3AudikwLike(b *testing.B) {
	a := benchAudikw()
	for _, sub := range []struct {
		name  string
		strat esrp.Strategy
		t     int
		fail  bool
	}{
		{"ESR/ff", esrp.StrategyESR, 1, false},
		{"ESR/fail", esrp.StrategyESR, 1, true},
		{"ESRP-T20/ff", esrp.StrategyESRP, 20, false},
		{"ESRP-T20/fail", esrp.StrategyESRP, 20, true},
		{"IMCR-T20/ff", esrp.StrategyIMCR, 20, false},
		{"IMCR-T20/fail", esrp.StrategyIMCR, 20, true},
	} {
		b.Run(sub.name, func(b *testing.B) {
			benchFigurePoint(b, a, sub.strat, sub.t, 1, sub.fail)
		})
	}
}

// BenchmarkAugmentTraffic isolates the plan-level traffic cost of the
// resilient copies (no solve; pure plan accounting).
func BenchmarkAugmentTraffic(b *testing.B) {
	a := benchEmilia()
	part := dist.NewBlockPartition(a.Rows, benchNodes)
	var extra, regular int
	for i := 0; i < b.N; i++ {
		plan, err := aspmv.NewPlan(a, part)
		if err != nil {
			b.Fatal(err)
		}
		if err := plan.Augment(1); err != nil {
			b.Fatal(err)
		}
		extra, regular = plan.ExtraTraffic()
	}
	b.ReportMetric(float64(extra), "extra-entries")
	b.ReportMetric(float64(extra)/float64(regular)*100, "extra%")
}

// BenchmarkSpMVExchange measures the halo exchange plus local SpMV, the hot
// kernel of every PCG iteration.
func BenchmarkSpMVExchange(b *testing.B) {
	a := benchEmilia()
	rhs := esrp.RHSOnes(a.Rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := esrp.Solve(esrp.Config{
			A: a, B: rhs, Nodes: benchNodes, MaxIter: 50, Rtol: 1e-30,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// BenchmarkAblationBalancedPartition compares uniform-rows and work-balanced
// row distributions on the audikw-like matrix (near-uniform rows; balancing
// is cheap insurance) — the paper's future-work question on partitioning.
func BenchmarkAblationBalancedPartition(b *testing.B) {
	a := benchAudikw()
	rhs := esrp.RHSOnes(a.Rows)
	for _, sub := range []struct {
		name    string
		balance bool
	}{
		{"uniform-rows", false},
		{"balanced-work", true},
	} {
		b.Run(sub.name, func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				res, err := esrp.Solve(esrp.Config{
					A: a, B: rhs, Nodes: benchNodes, BalanceNNZ: sub.balance,
				})
				if err != nil {
					b.Fatal(err)
				}
				sim = res.SimTime
			}
			b.ReportMetric(sim, "simsec/solve")
		})
	}
}

// BenchmarkAblationResidualReplacement measures the drift reduction and the
// time cost of van-der-Vorst/Ye residual replacement (the paper's ref. 27).
func BenchmarkAblationResidualReplacement(b *testing.B) {
	a := benchEmilia()
	rhs := esrp.RHSOnes(a.Rows)
	for _, sub := range []struct {
		name string
		rr   int
	}{
		{"off", 0},
		{"every-20", 20},
	} {
		b.Run(sub.name, func(b *testing.B) {
			var sim, drift float64
			for i := 0; i < b.N; i++ {
				res, err := esrp.Solve(esrp.Config{
					A: a, B: rhs, Nodes: benchNodes,
					ResidualReplacementInterval: sub.rr,
				})
				if err != nil {
					b.Fatal(err)
				}
				sim, drift = res.SimTime, res.Drift
			}
			b.ReportMetric(sim, "simsec/solve")
			b.ReportMetric(drift, "drift")
		})
	}
}

// BenchmarkHostSolve measures the host-side cost of the simulator itself —
// wall-clock ns/op and allocs/op of one fixed-length solve — the figure the
// zero-allocation hot path and the structure-aware kernels optimize. Fixed
// MaxIter + unreachable Rtol makes the run length independent of
// convergence, so the metric is a pure data-path cost. The recorded host
// figures are benchmark/'s solve workloads; this benchmark is for local
// attribution (internal/sparse's BenchmarkKernelMul times each SpMV layout).
func BenchmarkHostSolve(b *testing.B) {
	a := benchEmilia()
	rhs := esrp.RHSOnes(a.Rows)
	run := func(name string, cfg esrp.Config) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := esrp.Solve(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("none", esrp.Config{A: a, B: rhs, Nodes: benchNodes, MaxIter: 60, Rtol: 1e-30})
	run("esr", esrp.Config{A: a, B: rhs, Nodes: benchNodes, MaxIter: 60, Rtol: 1e-30,
		Strategy: esrp.StrategyESR, Phi: 1})
	run("esrp-T20", esrp.Config{A: a, B: rhs, Nodes: benchNodes, MaxIter: 60, Rtol: 1e-30,
		Strategy: esrp.StrategyESRP, T: 20, Phi: 1})
	run("imcr-T20", esrp.Config{A: a, B: rhs, Nodes: benchNodes, MaxIter: 60, Rtol: 1e-30,
		Strategy: esrp.StrategyIMCR, T: 20, Phi: 1})
}

// BenchmarkCampaignSweep measures the experiment-sweep engine's host
// throughput in cells/sec on the CI smoke grid shape (2 strategies × 2
// intervals × 2 seeds under a Poisson failure process). This is the number
// the campaign-cell reuse (shared matrix/partition/plan, worker-local solver
// arenas) multiplies.
func BenchmarkCampaignSweep(b *testing.B) {
	a := esrp.Poisson2D(32, 32)
	grid := esrp.CampaignGrid{
		Matrices:   []esrp.CampaignMatrix{{Name: "poisson2d-32", A: a}},
		Nodes:      []int{8},
		Strategies: []esrp.Strategy{esrp.StrategyESRP, esrp.StrategyIMCR},
		Ts:         []int{10, 20},
		Phis:       []int{1},
		Seeds:      []int64{1, 2},
		Scenario:   esrp.FailureScenario{Model: esrp.ScenarioExponential, MTBF: 500, Horizon: 80},
	}
	b.ReportAllocs()
	var cells int
	start := time.Now()
	for i := 0; i < b.N; i++ {
		rep, err := esrp.RunCampaign(grid)
		if err != nil {
			b.Fatal(err)
		}
		cells += len(rep.Cells)
	}
	if sec := time.Since(start).Seconds(); sec > 0 {
		b.ReportMetric(float64(cells)/sec, "cells/sec")
	}
}

// BenchmarkNoSpareVsSpare compares recovery with replacement nodes against
// the spare-free adoption variant (ref. 22): same failure, same rollback
// point, different recovery protocol and post-recovery cluster size.
func BenchmarkNoSpareVsSpare(b *testing.B) {
	a := benchEmilia()
	rhs := esrp.RHSOnes(a.Rows)
	ref, err := esrp.Solve(esrp.Config{A: a, B: rhs, Nodes: benchNodes})
	if err != nil {
		b.Fatal(err)
	}
	for _, sub := range []struct {
		name    string
		noSpare bool
	}{
		{"spare-replacements", false},
		{"no-spare-adoption", true},
	} {
		b.Run(sub.name, func(b *testing.B) {
			var sim, rec float64
			for i := 0; i < b.N; i++ {
				res, err := esrp.Solve(esrp.Config{
					A: a, B: rhs, Nodes: benchNodes,
					Strategy: esrp.StrategyESRP, T: 20, Phi: 2,
					NoSpareNodes: sub.noSpare,
					Failures: []esrp.FailureSpec{{
						Iteration: ref.Iterations / 2,
						Ranks:     []int{4, 5},
					}},
				})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Converged || !res.Recovered {
					b.Fatal("failure run did not recover/converge")
				}
				sim, rec = res.SimTime, res.RecoveryTime
			}
			b.ReportMetric(sim, "simsec/solve")
			b.ReportMetric(rec, "recsec/solve")
		})
	}
}
