// Elasticity with multiple simultaneous node failures: a switch fault takes
// out a contiguous block of three nodes at once (the paper's Section 5
// justification for contiguous failed-rank blocks), while the solver works
// on an audikw_1-like elasticity system with 3 degrees of freedom per
// vertex.
//
// The example contrasts ESRP with the in-memory buddy checkpoint-restart
// baseline (IMCR) at the same checkpoint interval and redundancy: ESRP pays
// for recovery with gathers plus two inner solves, IMCR with pure
// communication — the paper's headline trade-off.
package main

import (
	"fmt"
	"log"

	"esrp"
)

func main() {
	// Elasticity-like system: 12×12×12 vertices × 3 dofs = 5 184 unknowns,
	// ~78 nnz/row, on 12 simulated nodes.
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

	fmt.Println("\nBoth recover exactly; IMCR's recovery is near-free communication while")
	fmt.Println("ESRP's includes the reconstruction solves — but ESRP ships far less data")
	fmt.Println("per checkpoint, which shows in the failure-free overhead (see esrpbench).")
}
