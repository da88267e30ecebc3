// Checkpoint-interval trade-off: the core tension of any checkpoint-restart
// scheme (Section 3.1 of the paper). Storing redundant state less often
// (larger T) cuts the failure-free overhead, but a failure then rolls the
// solver back further, wasting more iterations.
//
// This example sweeps T for ESRP on an Emilia-like system, measuring both
// sides of the trade-off, and compares the empirical sweet spot with the
// classical Young/Daly first-order estimate T* ≈ √(2·C_ckpt·MTBF) that the
// paper cites ([8, 28]).
package main

import (
	"fmt"
	"log"

	"esrp"
)

func main() {
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
		fmt.Printf("%6d %17.2f%% %21.2f%% %14d\n",
			t,
			100*(ff.SimTime-ref.SimTime)/ref.SimTime,
			100*(fr.SimTime-ref.SimTime)/ref.SimTime,
			fr.WastedIters)
		if t == 20 {
			stages := float64(ref.Iterations / t)
			delta = (ff.SimTime - ref.SimTime) / stages
		}
	}

	fmt.Println("\nSmall T: you pay for redundancy every few iterations but lose almost")
	fmt.Println("nothing on rollback. Large T: free when nothing fails, expensive when")
	fmt.Println("something does. The optimum depends on the machine's failure rate.")

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
}

// failureIteration mirrors the paper's protocol: the failure lands two
// iterations before the end of the checkpoint interval containing C/2.
func failureIteration(c, t int) int {
	if t <= 1 {
		return c / 2
	}
	k := (c / 2) / t
	j := (k+1)*t - 2
	if j < 0 {
		return 0
	}
	return j
}
