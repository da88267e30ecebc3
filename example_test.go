package esrp_test

import (
	"bytes"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"esrp"
)

// Solve a small SPD system with the node-failure-resilient PCG solver,
// inject one node failure mid-solve, and verify that the solver recovers and
// converges to the correct solution.
func Example() {
	// A 64×64 Poisson problem (4096 unknowns) distributed over 8 simulated
	// cluster nodes, with a known solution x* so we can check the answer.
	a := esrp.Poisson2D(64, 64)
	b, xstar := esrp.RHSForSolution(a, 42)

	res, err := esrp.Solve(esrp.Config{
		A: a, B: b, Nodes: 8,

		// ESRP: store redundant copies of the search direction every T = 20
		// iterations (two consecutive augmented matrix-vector products),
		// tolerating up to φ = 1 node failure.
		Strategy: esrp.StrategyESRP, T: 20, Phi: 1,

		// Kill node 3 at iteration 50. The failed node zeroes all its
		// dynamic data and acts as its own replacement, as in the paper's
		// experimental framework.
		Failures: []esrp.FailureSpec{{Iteration: 50, Ranks: []int{3}}},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("converged: %v after %d iterations (relative residual %.2e)\n",
		res.Converged, res.Iterations, res.RelResidual)
	fmt.Printf("recovered from the failure at iteration %d; rolled back to %d (%d iterations re-done)\n",
		50, res.RecoveredAt, res.WastedIters)
	fmt.Printf("simulated runtime %.4g s, recovery cost %.4g s\n", res.SimTime, res.RecoveryTime)
	fmt.Printf("per-node memory %d B (O(local+halo)), measured halo traffic %d B\n",
		res.MaxNodeBytes, res.HaloBytes)
	fmt.Printf("max error against the known solution: %.2e\n", maxAbsDiff(res.X, xstar))

	// Output:
	// converged: true after 126 iterations (relative residual 9.33e-09)
	// recovered from the failure at iteration 50; rolled back to 41 (9 iterations re-done)
	// simulated runtime 0.008472 s, recovery cost 0.00238 s
	// per-node memory 82944 B (O(local+halo)), measured halo traffic 1321984 B
	// max error against the known solution: 4.27e-07
}

// maxAbsDiff returns max |x[i] − y[i]|.
func maxAbsDiff(x, y []float64) float64 {
	m := 0.0
	for i := range y {
		m = math.Max(m, math.Abs(x[i]-y[i]))
	}
	return m
}

// Recovery without spare nodes, the extension the paper points to in its
// related work ([22]: Pachajoa, Pacher, Gansterer, "Node-Failure-Resistant
// PCG without Replacement Nodes").
//
// When no replacement nodes are available, the surviving node adjacent to
// the failed block adopts the lost rows: the exact pre-failure state is
// reconstructed on the adopter from the ASpMV redundancy, the cluster
// shrinks, and the solve continues on fewer nodes — still on the exact
// reference trajectory, because the adopter keeps applying the failed
// nodes' original preconditioner blocks.
func Example_shrinkingCluster() {
	a := esrp.EmiliaLike(14, 14, 14, 7)
	b, xstar := esrp.RHSForSolution(a, 3)
	const nodes = 12

	ref, err := esrp.Solve(esrp.Config{A: a, B: b, Nodes: nodes})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reference: %d iterations on %d nodes, %.4g s simulated\n\n",
		ref.Iterations, nodes, ref.SimTime)

	failed := []int{5, 6}
	failAt := ref.Iterations / 2
	fmt.Printf("nodes %v die at iteration %d — and there are no spares.\n\n", failed, failAt)

	// The repartitioning the recovery will perform: the survivor adjacent
	// to the failed block adopts its rows.
	part := esrp.NewBlockPartition(a.Rows, nodes)
	shrunk, err := part.ShrinkAfterLoss([]int{0, 1, 2, 3, 4, 7, 8, 9, 10, 11})
	if err != nil {
		log.Fatal(err)
	}
	adopter := failed[len(failed)-1] + 1
	fmt.Printf("node %d's range grows from %d to %d rows when it adopts rows [%d,%d)\n",
		adopter, part.Size(adopter), shrunk.Size(adopter-len(failed)),
		part.Lo(failed[0]), part.Hi(failed[len(failed)-1]))
	before, _ := part.Analyze(a)
	after, _ := shrunk.Analyze(a)
	fmt.Printf("partition quality before: %v\n", before)
	fmt.Printf("partition quality after:  %v\n\n", after)

	res, err := esrp.Solve(esrp.Config{
		A: a, B: b, Nodes: nodes,
		Strategy: esrp.StrategyESRP, T: 15, Phi: 2,
		NoSpareNodes: true,
		Failures:     []esrp.FailureSpec{{Iteration: failAt, Ranks: failed}},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("converged: %v after %d trajectory iterations (%d executed)\n",
		res.Converged, res.Iterations, res.TotalSteps)
	fmt.Printf("cluster shrank from %d to %d active nodes; node %d adopted rows of %v\n",
		nodes, res.ActiveNodes, adopter, failed)
	fmt.Printf("rolled back to iteration %d, recovery cost %.4g s simulated\n",
		res.RecoveredAt, res.RecoveryTime)
	fmt.Printf("max error against the known solution: %.2e\n", maxAbsDiff(res.X, xstar))
	fmt.Printf("trajectory matches the reference within %+d iterations\n",
		res.Iterations-ref.Iterations)

	// Output:
	// reference: 93 iterations on 12 nodes, 0.004496 s simulated
	//
	// nodes [5 6] die at iteration 46 — and there are no spares.
	//
	// node 7's range grows from 229 to 687 rows when it adopts rows [1145,1603)
	// partition quality before: load max/mean 5655/5333 (imbalance 1.060), ghosts 4618
	// partition quality after:  load max/mean 16707/6400 (imbalance 2.610), ghosts 3798
	//
	// converged: true after 93 trajectory iterations (94 executed)
	// cluster shrank from 12 to 10 active nodes; node 7 adopted rows of [5 6]
	// rolled back to iteration 46, recovery cost 0.002549 s simulated
	// max error against the known solution: 6.89e-06
	// trajectory matches the reference within +0 iterations
}

// The paper's motivating problem class — an elliptic PDE (steady-state heat
// equation) discretized on a 3-D grid, solved on an unreliable cluster. This
// compares what happens to an unprotected solver versus ESR and ESRP when a
// node dies mid-solve.
//
// The unprotected solver survives only by a "local restart": it zeroes the
// lost entries and restarts the Krylov process from the surviving iterand,
// discarding all accumulated search-direction conjugacy — the costly
// scenario (cf. [19] in the paper) that motivates exact state
// reconstruction.
func Example_heatConduction() {
	// Steady-state heat equation on a 24×24×24 grid: 13 824 unknowns over
	// 12 simulated nodes.
	a := esrp.Poisson3D(24, 24, 24)
	b := esrp.RHSOnes(a.Rows)

	// Reference: how long does the undisturbed solve take?
	ref, err := esrp.Solve(esrp.Config{A: a, B: b, Nodes: 12})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reference (failure-free): %d iterations, %.4g s simulated\n\n",
		ref.Iterations, ref.SimTime)

	failAt := ref.Iterations / 2
	fail := []esrp.FailureSpec{{Iteration: failAt, Ranks: []int{5}}}
	fmt.Printf("injecting a failure of node 5 at iteration %d:\n\n", failAt)

	for _, tc := range []struct {
		label    string
		strategy esrp.Strategy
		t        int
	}{
		{"none (local restart)", esrp.StrategyNone, 0},
		{"ESR  (T=1)", esrp.StrategyESR, 1},
		{"ESRP (T=25)", esrp.StrategyESRP, 25},
	} {
		res, err := esrp.Solve(esrp.Config{
			A: a, B: b, Nodes: 12,
			Strategy: tc.strategy, T: tc.t, Phi: 1,
			Failures: fail,
		})
		if err != nil {
			log.Fatal(err)
		}
		overhead := 100 * (res.SimTime - ref.SimTime) / ref.SimTime
		fmt.Printf("%-22s converged=%v  total iterations=%5d  overhead=%6.2f%%  wasted=%d\n",
			tc.label, res.Converged, res.TotalSteps, overhead, res.WastedIters)
	}

	// Output:
	// reference (failure-free): 72 iterations, 0.007133 s simulated
	//
	// injecting a failure of node 5 at iteration 36:
	//
	// none (local restart)   converged=true  total iterations=  110  overhead= 51.61%  wasted=0
	// ESR  (T=1)             converged=true  total iterations=   73  overhead= 40.34%  wasted=0
	// ESRP (T=25)            converged=true  total iterations=   83  overhead= 53.89%  wasted=10
}

// Multiple simultaneous node failures: a switch fault takes out a contiguous
// block of three nodes at once (the paper's Section 5 justification for
// contiguous failed-rank blocks), while the solver works on an
// audikw_1-like elasticity system with 3 degrees of freedom per vertex.
//
// This contrasts ESRP with the in-memory buddy checkpoint-restart baseline
// (IMCR) at the same checkpoint interval and redundancy. Both recover
// exactly; ESRP pays for recovery with gathers plus two inner solves, IMCR
// with near-free communication — but ESRP ships far less data per
// checkpoint, which shows in the failure-free overhead (see esrpbench).
func Example_elasticity() {
	// Elasticity-like system: 12×12×12 vertices × 3 dofs = 5 184 unknowns
	// on 12 simulated nodes.
	a := esrp.AudikwLike(12, 12, 12, 3, 944)
	b := esrp.RHSOnes(a.Rows)
	const nodes = 12

	ref, err := esrp.Solve(esrp.Config{A: a, B: b, Nodes: nodes})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("matrix: %d rows, %d nnz (%.1f nnz/row)\n", a.Rows, a.NNZ(),
		float64(a.NNZ())/float64(a.Rows))
	fmt.Printf("reference: %d iterations, %.4g s simulated\n\n", ref.Iterations, ref.SimTime)

	// A switch fault kills nodes 4, 5, 6 simultaneously halfway through.
	failed := []int{4, 5, 6}
	phi := len(failed)
	failAt := ref.Iterations / 2
	fmt.Printf("simultaneous failure of nodes %v at iteration %d (φ = ψ = %d):\n\n",
		failed, failAt, phi)

	for _, tc := range []struct {
		label    string
		strategy esrp.Strategy
	}{
		{"ESRP", esrp.StrategyESRP},
		{"IMCR", esrp.StrategyIMCR},
	} {
		res, err := esrp.Solve(esrp.Config{
			A: a, B: b, Nodes: nodes,
			Strategy: tc.strategy, T: 20, Phi: phi,
			Failures: []esrp.FailureSpec{{Iteration: failAt, Ranks: failed}},
		})
		if err != nil {
			log.Fatal(err)
		}
		overhead := 100 * (res.SimTime - ref.SimTime) / ref.SimTime
		recovery := 100 * res.RecoveryTime / ref.SimTime
		fmt.Printf("%-5s T=20 φ=%d: converged=%v  overhead=%6.2f%%  recovery=%5.2f%%  rolled back to %d  drift=%.2e\n",
			tc.label, phi, res.Converged, overhead, recovery, res.RecoveredAt, res.Drift)
	}

	// Output:
	// matrix: 5184 rows, 353736 nnz (68.2 nnz/row)
	// reference: 119 iterations, 0.01573 s simulated
	//
	// simultaneous failure of nodes [4 5 6] at iteration 59 (φ = ψ = 3):
	//
	// ESRP  T=20 φ=3: converged=true  overhead= 71.00%  recovery=55.68%  rolled back to 41  drift=2.35e-07
	// IMCR  T=20 φ=3: converged=true  overhead= 15.89%  recovery= 0.37%  rolled back to 41  drift=3.17e-07
}

// The core tension of any checkpoint-restart scheme (Section 3.1 of the
// paper): storing redundant state less often (larger T) cuts the
// failure-free overhead, but a failure then rolls the solver back further,
// wasting more iterations. The optimum depends on the failure rate.
//
// This sweeps T for ESRP on an Emilia-like system, measuring both sides of
// the trade-off, and compares the empirical sweet spot with the classical
// Young/Daly first-order estimate T* ≈ √(2·C_ckpt·MTBF) that the paper cites
// ([8, 28]).
func Example_checkpointTradeoff() {
	a := esrp.EmiliaLike(20, 20, 20, 923)
	b := esrp.RHSOnes(a.Rows)
	// φ = 3: with a banded matrix the plain product already replicates every
	// boundary-plane entry once, so φ = 1 redundancy is almost free; three
	// copies per entry make the storage cost visible.
	const nodes, phi = 8, 3

	ref, err := esrp.Solve(esrp.Config{A: a, B: b, Nodes: nodes})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reference: %d iterations, t0 = %.4g s simulated\n\n", ref.Iterations, ref.SimTime)
	fmt.Printf("%6s %18s %22s %14s\n", "T", "failure-free ovh", "ovh with 3 failures", "wasted iters")

	// Measure the per-storage-stage cost δ for the Young/Daly models: the
	// extra time of an ESRP run with exactly one storage stage per interval,
	// divided by the number of stages.
	var delta float64
	iterTime := ref.SimTime / float64(ref.Iterations)

	for _, t := range []int{1, 5, 10, 20, 50, 100} {
		strat := esrp.StrategyESRP
		if t <= 2 {
			strat = esrp.StrategyESR
		}
		ff, err := esrp.Solve(esrp.Config{
			A: a, B: b, Nodes: nodes, Strategy: strat, T: t, Phi: phi,
		})
		if err != nil {
			log.Fatal(err)
		}
		// Worst-case failure placement: two iterations before the end of
		// the interval containing the midpoint, as in the paper.
		failAt := failureIteration(ref.Iterations, t)
		fr, err := esrp.Solve(esrp.Config{
			A: a, B: b, Nodes: nodes, Strategy: strat, T: t, Phi: phi,
			Failures: []esrp.FailureSpec{{Iteration: failAt, Ranks: []int{3, 4, 5}}},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%6d %17.2f%% %21.2f%% %14d\n", t, 100*(ff.SimTime-ref.SimTime)/ref.SimTime,
			100*(fr.SimTime-ref.SimTime)/ref.SimTime, fr.WastedIters)
		if t == 20 {
			delta = (ff.SimTime - ref.SimTime) / float64(ref.Iterations/t)
		}
	}

	// The Young/Daly models the paper cites ([28, 8]) pick T* from the
	// storage-stage cost δ and the machine's MTBF. On a machine failing
	// every ~100 solves, the optimum lands at a large T — exactly the
	// paper's argument for ESRP over every-iteration ESR.
	mtbf := 100 * ref.SimTime
	advice, err := esrp.PlanCheckpointInterval(delta, iterTime, mtbf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nYoung/Daly for δ=%.3g s, MTBF=%.3g s (≈100 solves):\n", delta, mtbf)
	fmt.Printf("  Young: τ*=%.4g s  →  T* ≈ %d iterations\n", advice.YoungTau, advice.YoungIters)
	fmt.Printf("  Daly:  τ*=%.4g s  →  T* ≈ %d iterations\n", advice.DalyTau, advice.DalyIters)

	// Output:
	// reference: 242 iterations, t0 = 0.03213 s simulated
	//
	//      T   failure-free ovh    ovh with 3 failures   wasted iters
	//      1              0.90%                 80.57%              0
	//      5              0.36%                 80.84%              2
	//     10              0.18%                 82.72%              7
	//     20              0.09%                 86.73%             17
	//     50              0.03%                 98.98%             47
	//    100              0.01%                119.47%             97
	//
	// Young/Daly for δ=2.4e-06 s, MTBF=3.21 s (≈100 solves):
	//   Young: τ*=0.003927 s  →  T* ≈ 30 iterations
	//   Daly:  τ*=0.003926 s  →  T* ≈ 30 iterations
}

// failureIteration mirrors the paper's protocol: the failure lands two
// iterations before the end of the checkpoint interval containing C/2.
func failureIteration(c, t int) int {
	if t <= 1 {
		return c / 2
	}
	return ((c/2)/t+1)*t - 2
}

// The paper's closing argument is that whether ESRP or IMCR (and which
// interval T) is the right choice depends on how often the machine fails.
// This draws failure times from a seeded exponential distribution for a
// range of machine MTBFs and reports the *expected* total runtime per
// strategy and interval — alongside Daly's closed-form prediction of the
// optimal interval. Frequent failures favour small T and IMCR's cheap
// recovery; rare ones favour large T, where ESRP's storage is almost free.
//
// The estimator runs on the replay engine: each distinct scenario shape
// (strategy, interval, failure iteration) is simulated and *recorded* once,
// and every draw that maps onto it is costed by re-playing the recorded
// event schedule in O(events) instead of re-running the solver; a failure
// after convergence maps onto the failure-free solve. A re-cost under the
// default machine reproduces the recorded solve bit for bit, which the
// example checks on every recording.
//
// One failure event at most strikes per solve (the paper's framework
// simulates exactly one event per run; with MTBF ≫ solve time the chance of
// two is negligible).
func Example_failureRates() {
	a := esrp.EmiliaLike(14, 14, 14, 7)
	b := esrp.RHSOnes(a.Rows)
	// φ = 3: redundancy with a measurable storage cost (at φ = 1 the banded
	// product replicates nearly everything already, making δ ≈ 0).
	const nodes, phi, trials = 12, 3, 20

	ref, err := esrp.Solve(esrp.Config{A: a, B: b, Nodes: nodes})
	if err != nil {
		log.Fatal(err)
	}
	t0 := ref.SimTime
	iterTime := t0 / float64(ref.Iterations)
	fmt.Printf("reference: %d iterations, t0 = %.4g s simulated, %d nodes\n",
		ref.Iterations, t0, nodes)

	est := &estimator{base: esrp.Config{A: a, B: b, Nodes: nodes, Phi: phi},
		trials: trials, recordings: map[string]recording{}}

	// Daly's closed-form optimum for comparison: δ measured as the
	// failure-free cost of one ESRP storage stage.
	ff20, err := esrp.Solve(esrp.Config{
		A: a, B: b, Nodes: nodes, Strategy: esrp.StrategyESRP, T: 20, Phi: phi,
	})
	if err != nil {
		log.Fatal(err)
	}
	delta := math.Max((ff20.SimTime-t0)/float64(ref.Iterations/20), 1e-12)

	intervals := []int{5, 20, 50, 100}
	for _, m := range []struct {
		factor float64
		regime string
	}{{0.8, "frequent"}, {5, "occasional"}, {50, "rare"}} {
		mtbf := m.factor * t0
		fmt.Printf("\nMTBF = %.1f × solve time (failures are %s):\n", m.factor, m.regime)
		header := fmt.Sprintf("%-14s", "strategy")
		for _, t := range intervals {
			header += fmt.Sprintf("  T=%-8d", t)
		}
		fmt.Println(strings.TrimRight(header, " "))

		for _, strat := range []esrp.Strategy{esrp.StrategyESRP, esrp.StrategyIMCR} {
			fmt.Printf("%-14v", strat)
			for _, t := range intervals {
				mean := est.expectedRuntime(strat, t, mtbf, iterTime)
				fmt.Printf("  %8.2f%%", 100*(mean-t0)/t0)
			}
			fmt.Println()
		}
		if advice, err := esrp.PlanCheckpointInterval(delta, iterTime, mtbf); err == nil {
			fmt.Printf("Daly's optimal interval for this δ and MTBF: T* ≈ %d iterations\n", advice.DalyIters)
		}
	}

	fmt.Printf("\nreplay engine: %d draws, each a re-cost of one of %d recorded solves\n",
		est.recosts, est.records)
	fmt.Printf("recorded solves that did not converge: %d\n", est.unconverged)
	fmt.Printf("re-costs that differ from their solve: %d\n", est.mismatches)

	// Output:
	// reference: 136 iterations, t0 = 0.006534 s simulated, 12 nodes
	//
	// MTBF = 0.8 × solve time (failures are frequent):
	// strategy        T=5         T=20        T=50        T=100
	// ESRP                9.89%     11.51%     14.73%     19.65%
	// IMCR                3.79%      6.44%     11.47%     18.26%
	// Daly's optimal interval for this δ and MTBF: T* ≈ 3 iterations
	//
	// MTBF = 5.0 × solve time (failures are occasional):
	// strategy        T=5         T=20        T=50        T=100
	// ESRP                3.87%      4.17%      6.19%      8.64%
	// IMCR                2.70%      2.04%      3.88%      7.25%
	// Daly's optimal interval for this δ and MTBF: T* ≈ 8 iterations
	//
	// MTBF = 50.0 × solve time (failures are rare):
	// strategy        T=5         T=20        T=50        T=100
	// ESRP                1.01%      0.23%      0.08%      0.04%
	// IMCR                2.25%      0.50%      0.17%      0.08%
	// Daly's optimal interval for this δ and MTBF: T* ≈ 27 iterations
	//
	// replay engine: 480 draws, each a re-cost of one of 160 recorded solves
	// recorded solves that did not converge: 0
	// re-costs that differ from their solve: 0
}

// estimator draws failure times and costs them on the replay engine: each
// distinct (strategy, T, failure iteration) shape is recorded once, every
// draw is a re-cost of the matching schedule.
type estimator struct {
	base       esrp.Config // the system, nodes and φ of every solve
	trials     int
	recordings map[string]recording

	records, recosts, unconverged, mismatches int
}

// recording is one recorded solve: its schedule and iteration count.
type recording struct {
	sched *esrp.Schedule
	iters int
}

// expectedRuntime replays `trials` seeded failure draws against the
// recorded schedules and returns the mean simulated total runtime.
func (e *estimator) expectedRuntime(strat esrp.Strategy, t int, mtbf, iterTime float64) float64 {
	// A failure at or past the failure-free solve's iteration count cannot
	// strike: the solve has converged by then.
	ff := e.recorded(strat, t, -1)
	rng := rand.New(rand.NewSource(42))
	var sum float64
	for trial := 0; trial < e.trials; trial++ {
		failIter := int(rng.ExpFloat64() * mtbf / iterTime)
		sched := ff.sched
		if failIter < ff.iters {
			sched = e.recorded(strat, t, failIter).sched
		}
		rep, err := sched.Recost(esrp.DefaultCostModel())
		if err != nil {
			log.Fatalf("%v T=%d: re-cost: %v", strat, t, err)
		}
		e.recosts++
		sum += rep.SimTime
	}
	return sum / float64(e.trials)
}

// recorded returns the recorded solve of one shape, failure-free for a
// negative failIter, and records it on first use. A new recording is
// checked: the solve must converge, and the schedule re-costed under the
// default machine must reproduce the solve's figures bit for bit.
func (e *estimator) recorded(strat esrp.Strategy, t, failIter int) recording {
	key := fmt.Sprintf("%v/%d/%d", strat, t, failIter)
	if r, ok := e.recordings[key]; ok {
		return r
	}
	cfg := e.base
	cfg.Strategy, cfg.T = strat, t
	if failIter >= 0 {
		cfg.Failures = []esrp.FailureSpec{{Iteration: failIter, Ranks: []int{cfg.Nodes / 2}}}
	}
	res, sched, err := esrp.RecordSchedule(cfg)
	e.records++
	if err != nil {
		log.Fatalf("%v T=%d: %v", strat, t, err)
	}
	if !res.Converged {
		e.unconverged++
	}
	rep, err := sched.Recost(esrp.DefaultCostModel())
	if err != nil {
		log.Fatalf("%v T=%d: re-cost: %v", strat, t, err)
	}
	if rep.SimTime != res.SimTime || rep.RecoveryTime != res.RecoveryTime ||
		rep.BytesSent != res.BytesSent || rep.MsgsSent != res.MsgsSent {
		e.mismatches++
	}
	r := recording{sched, res.Iterations}
	e.recordings[key] = r
	return r
}

// campaignJSON runs a small failure-laden campaign (8 cells) under model
// (nil: the default machine), through cache when it is not nil, and returns
// the report as JSON and the cache counters.
func campaignJSON(cache *esrp.CampaignCache, model *esrp.CostModel) ([]byte, *esrp.CampaignCacheCounters) {
	rec := esrp.NewHostRecorder()
	rep, err := esrp.RunCampaign(esrp.CampaignGrid{
		Matrices:   []esrp.CampaignMatrix{{Name: "poisson2d-32", A: esrp.Poisson2D(32, 32)}},
		Nodes:      []int{8},
		Strategies: []esrp.Strategy{esrp.StrategyESRP, esrp.StrategyIMCR},
		Ts:         []int{10, 20},
		Phis:       []int{1},
		Seeds:      []int64{1, 2},
		Scenario:   esrp.FailureScenario{Model: esrp.ScenarioExponential, MTBF: 500, Horizon: 80},
		Cache:      cache,
		CostModel:  model,
		HostObs:    rec,
	})
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		log.Fatal(err)
	}
	return buf.Bytes(), rec.Telemetry().Cache
}

// The content-addressed campaign cache makes parameter studies resumable and
// machine sweeps nearly free. This runs the same small campaign three times
// against one cache directory:
//
//  1. cold — every cell solved, results and event schedules cached;
//  2. warm — zero solves: every cell is a result-tier hit;
//  3. warm at a new machine point — still zero solves: the cache key
//     deliberately excludes the LogGP model, so each cell's recorded
//     schedule is re-costed under the new machine in O(events).
//
// The warm report is byte-identical to the cold one, and run 3's to a live
// cacheless sweep under the same machine.
func ExampleOpenCampaignCache() {
	dir, err := os.MkdirTemp("", "esrp-ccache")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	// A new directory holds no entries of another build: no note.
	cache, _, err := esrp.OpenCampaignCache(dir, esrp.CacheMismatchBypass)
	if err != nil {
		log.Fatal(err)
	}

	cold, coldCtr := campaignJSON(cache, nil)
	warm, warmCtr := campaignJSON(cache, nil)

	// A machine point the cache has never seen: 4× the latency, half the
	// bandwidth. Served entirely from the schedule tier.
	slow := esrp.DefaultCostModel()
	slow.Latency *= 4
	slow.BytePeriod *= 2
	moved, movedCtr := campaignJSON(cache, &slow)
	live, _ := campaignJSON(nil, &slow)

	fmt.Printf("campaign: %d cells\n\n", coldCtr.Misses)
	fmt.Printf("%-26s %8s %8s %8s\n", "run", "solves", "res-hit", "sch-hit")
	fmt.Printf("%-26s %8d %8d %8d\n", "cold", coldCtr.Misses, coldCtr.ResultHits, coldCtr.ScheduleHits)
	fmt.Printf("%-26s %8d %8d %8d\n", "warm (same inputs)", warmCtr.Misses, warmCtr.ResultHits, warmCtr.ScheduleHits)
	fmt.Printf("%-26s %8d %8d %8d\n", "warm (new machine point)", movedCtr.Misses, movedCtr.ResultHits, movedCtr.ScheduleHits)
	fmt.Printf("\nwarm report equals cold: %v\n", bytes.Equal(cold, warm))
	fmt.Printf("machine-point report equals a live solve: %v\n", bytes.Equal(moved, live))

	// Output:
	// campaign: 8 cells
	//
	// run                          solves  res-hit  sch-hit
	// cold                              8        0        0
	// warm (same inputs)                0        8        0
	// warm (new machine point)          0        0        8
	//
	// warm report equals cold: true
	// machine-point report equals a live solve: true
}

// A recorded schedule written to a file and read back re-costs like the
// solve it was recorded from, and under any other machine model without
// solving again. Config.DetectionTime, the simulated cost of detecting the
// failure, is recorded too: re-costs carry it unchanged.
func ExampleReadScheduleFile() {
	a := esrp.Poisson2D(32, 32)
	res, sched, err := esrp.RecordSchedule(esrp.Config{
		A: a, B: esrp.RHSOnes(a.Rows), Nodes: 8,
		Strategy: esrp.StrategyESRP, T: 10, Phi: 1,
		Failures:      []esrp.FailureSpec{{Iteration: 30, Ranks: []int{3}}},
		DetectionTime: 1e-4,
	})
	if err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "esrp-schedule")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "solve.sched")
	if err := esrp.WriteScheduleFile(path, sched); err != nil {
		log.Fatal(err)
	}
	read, err := esrp.ReadScheduleFile(path)
	if err != nil {
		log.Fatal(err)
	}

	def, err := read.Recost(esrp.DefaultCostModel())
	if err != nil {
		log.Fatal(err)
	}
	slow := esrp.DefaultCostModel()
	slow.Latency *= 4
	moved, err := read.Recost(slow)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("solve:       %.4g s simulated, %.4g s of it recovery\n", res.SimTime, res.RecoveryTime)
	fmt.Printf("4× latency:  %.4g s simulated, %.4g s of it recovery\n", moved.SimTime, moved.RecoveryTime)
	fmt.Printf("default re-cost equals the solve's SimTime: %v\n", def.SimTime == res.SimTime)

	// Output:
	// solve:       0.002231 s simulated, 0.0004397 s of it recovery
	// 4× latency:  0.00526 s simulated, 0.0004775 s of it recovery
	// default re-cost equals the solve's SimTime: true
}
