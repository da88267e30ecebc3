// Quickstart: solve a small SPD system with the node-failure-resilient PCG
// solver, inject one node failure mid-solve, and verify that the solver
// recovers and converges to the correct solution.
package main

import (
	"fmt"
	"log"
	"math"

	"esrp"
)

func main() {
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

	maxErr := 0.0
	for i := range xstar {
		maxErr = math.Max(maxErr, math.Abs(res.X[i]-xstar[i]))
	}
	fmt.Printf("max error against the known solution: %.2e\n", maxErr)
}
