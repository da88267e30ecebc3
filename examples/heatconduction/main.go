// Heat conduction: the paper's motivating problem class — an elliptic PDE
// (steady-state heat equation) discretized on a 3-D grid, solved on an
// unreliable cluster. This example compares what happens to an unprotected
// solver versus ESR and ESRP when a node dies mid-solve.
//
// The unprotected solver survives only by a "local restart": it zeroes the
// lost entries and restarts the Krylov process from the surviving iterand,
// discarding all accumulated search-direction conjugacy — the costly
// scenario (cf. [19] in the paper) that motivates exact state
// reconstruction.
package main

import (
	"fmt"
	"log"

	"esrp"
)

func main() {
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

	fmt.Println("\nESR/ESRP resume the exact pre-failure trajectory; the unprotected")
	fmt.Println("solver pays for the lost conjugacy with many extra iterations.")
}
