// Failure rates: the paper's closing argument is that whether ESRP or IMCR
// (and which interval T) is the right choice depends on how often the
// machine fails. This example makes that concrete: it draws failure times
// from a seeded exponential distribution for a range of machine MTBFs and
// reports the *expected* total runtime per strategy and interval — alongside
// Daly's closed-form prediction of the optimal interval from
// internal/ckptmodel.
//
// The estimator runs on the replay engine: each distinct scenario shape
// (strategy, interval, failure iteration) is simulated and *recorded* once,
// and every draw that maps onto it is costed by re-playing the recorded
// event schedule in O(events) instead of re-running the solver. A re-cost
// under the default machine reproduces the recorded solve bit for bit, and
// this example checks that on every recording — so it doubles as a smoke
// test for the replay engine (it exits non-zero on the first mismatch).
//
// One failure event at most strikes per solve (the paper's framework
// simulates exactly one event per run; with MTBF ≫ solve time the chance of
// two is negligible).
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	"esrp"
)

func main() {
	a := esrp.EmiliaLike(14, 14, 14, 7)
	b := esrp.RHSOnes(a.Rows)
	// φ = 3: redundancy with a measurable storage cost (at φ = 1 the banded
	// product replicates nearly everything already, making δ ≈ 0).
	const nodes, phi, trials = 12, 3, 40

	ref, err := esrp.Solve(esrp.Config{A: a, B: b, Nodes: nodes})
	if err != nil {
		log.Fatal(err)
	}
	t0 := ref.SimTime
	iterTime := t0 / float64(ref.Iterations)
	fmt.Printf("reference: %d iterations, t0 = %.4g s simulated, %d nodes\n",
		ref.Iterations, t0, nodes)

	est := &estimator{a: a, b: b, nodes: nodes, phi: phi, trials: trials}

	intervals := []int{5, 20, 50, 100}
	for _, mtbfFactor := range []float64{0.8, 5, 50} {
		mtbf := mtbfFactor * t0
		fmt.Printf("\nMTBF = %.1f × solve time (failures are %s):\n",
			mtbfFactor, regime(mtbfFactor))
		fmt.Printf("%-14s", "strategy")
		for _, t := range intervals {
			fmt.Printf("  T=%-8d", t)
		}
		fmt.Println()

		for _, strat := range []esrp.Strategy{esrp.StrategyESRP, esrp.StrategyIMCR} {
			fmt.Printf("%-14v", strat)
			for _, t := range intervals {
				mean := est.expectedRuntime(strat, t, mtbf, iterTime)
				fmt.Printf("  %8.2f%%", 100*(mean-t0)/t0)
			}
			fmt.Println()
		}

		// Daly's closed-form optimum for comparison: δ measured as the
		// failure-free cost of one ESRP storage stage.
		ff20, err := esrp.Solve(esrp.Config{
			A: a, B: b, Nodes: nodes, Strategy: esrp.StrategyESRP, T: 20, Phi: phi,
		})
		if err != nil {
			log.Fatal(err)
		}
		delta := (ff20.SimTime - t0) / float64(ref.Iterations/20)
		if advice, err := esrp.PlanCheckpointInterval(math.Max(delta, 1e-12), iterTime, mtbf); err == nil {
			fmt.Printf("Daly's optimal interval for this δ and MTBF: T* ≈ %d iterations\n", advice.DalyIters)
		}
	}

	fmt.Printf("\nreplay engine: %d draws costed by %d recorded solves (%.2fs) + %d re-costs (%.0fms)\n",
		est.draws, est.records, est.recordSec(), est.recosts, 1e3*est.recostSec())
	if est.recosts > 0 && est.recostSec() > 0 {
		fmt.Printf("per-draw speedup: full solve %.1fms vs re-cost %.2fms — %.0f× faster\n",
			1e3*est.recordSec()/float64(est.records),
			1e3*est.recostSec()/float64(est.recosts),
			(est.recordSec()/float64(est.records))/(est.recostSec()/float64(est.recosts)))
	}

	fmt.Println("\nExpected overhead over the failure-free reference, averaged across")
	fmt.Println("seeded random failure times. Frequent failures favour small T (and")
	fmt.Println("IMCR's cheap recovery); rare failures favour large T, where ESRP's")
	fmt.Println("storage is almost free — the paper's concluding trade-off.")
}

func regime(f float64) string {
	switch {
	case f < 2:
		return "frequent"
	case f < 20:
		return "occasional"
	default:
		return "rare"
	}
}

// estimator draws failure times and costs them on the replay engine: each
// distinct (strategy, T, failure iteration) shape is recorded once, every
// draw is a re-cost of the matching schedule.
type estimator struct {
	a      *esrp.CSR
	b      []float64
	nodes  int
	phi    int
	trials int

	schedules map[string]*esrp.Schedule

	draws, records, recosts int
	recordNs, recostNs      int64
}

func (e *estimator) recordSec() float64 { return float64(e.recordNs) / 1e9 }
func (e *estimator) recostSec() float64 { return float64(e.recostNs) / 1e9 }

// expectedRuntime replays `trials` seeded failure draws against the
// recorded schedules and returns the mean simulated total runtime.
func (e *estimator) expectedRuntime(strat esrp.Strategy, t int, mtbf, iterTime float64) float64 {
	if e.schedules == nil {
		e.schedules = make(map[string]*esrp.Schedule)
	}
	rng := rand.New(rand.NewSource(42))
	var sum float64
	for trial := 0; trial < e.trials; trial++ {
		failTime := rng.ExpFloat64() * mtbf
		failIter := int(failTime / iterTime)
		key := fmt.Sprintf("%v/%d/%d", strat, t, failIter)
		sched, ok := e.schedules[key]
		if !ok {
			sched = e.record(strat, t, failIter)
			e.schedules[key] = sched
		}
		start := time.Now()
		rep, err := sched.Recost(esrp.DefaultCostModel())
		e.recostNs += time.Since(start).Nanoseconds()
		e.recosts++
		if err != nil {
			log.Fatalf("%v T=%d: re-cost: %v", strat, t, err)
		}
		sum += rep.SimTime
		e.draws++
	}
	return sum / float64(e.trials)
}

// record runs one solve with recording on and holds the smoke gate: the
// schedule re-costed under the default machine must reproduce the solve's
// figures bit for bit.
func (e *estimator) record(strat esrp.Strategy, t, failIter int) *esrp.Schedule {
	cfg := esrp.Config{
		A: e.a, B: e.b, Nodes: e.nodes,
		Strategy: strat, T: t, Phi: e.phi,
	}
	if strat == esrp.StrategyESRP && t <= 2 {
		cfg.Strategy = esrp.StrategyESR
	}
	cfg.Failures = []esrp.FailureSpec{{Iteration: failIter, Ranks: []int{e.nodes / 2}}}
	start := time.Now()
	res, sched, err := esrp.RecordSchedule(cfg)
	e.recordNs += time.Since(start).Nanoseconds()
	e.records++
	if err != nil {
		log.Fatalf("%v T=%d: %v", strat, t, err)
	}
	if !res.Converged {
		log.Fatalf("%v T=%d: did not converge", strat, t)
	}
	rep, err := sched.Recost(esrp.DefaultCostModel())
	if err != nil {
		log.Fatalf("%v T=%d: re-cost: %v", strat, t, err)
	}
	if rep.SimTime != res.SimTime || rep.RecoveryTime != res.RecoveryTime ||
		rep.BytesSent != res.BytesSent || rep.MsgsSent != res.MsgsSent {
		log.Fatalf("replay smoke test FAILED: %v T=%d fail@%d: re-cost (%.17g s, %d B, %d msgs) "+
			"diverged from solve (%.17g s, %d B, %d msgs)",
			strat, t, failIter, rep.SimTime, rep.BytesSent, rep.MsgsSent,
			res.SimTime, res.BytesSent, res.MsgsSent)
	}
	return sched
}
