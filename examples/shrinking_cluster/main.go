// Shrinking cluster: recovery *without* spare nodes — the extension the
// paper points to in its related work ([22]: Pachajoa, Pacher, Gansterer,
// "Node-Failure-Resistant PCG without Replacement Nodes").
//
// When no replacement nodes are available, the surviving node adjacent to
// the failed block adopts the lost rows: the exact pre-failure state is
// reconstructed on the adopter from the ASpMV redundancy, the cluster
// shrinks, and the solve continues on fewer nodes — still on the exact
// reference trajectory, because the adopter keeps applying the failed
// nodes' original preconditioner blocks.
package main

import (
	"fmt"
	"log"
	"math"

	"esrp"
)

func main() {
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
	survivors := make([]int, 0, nodes-len(failed))
	for s := 0; s < nodes; s++ {
		if s != failed[0] && s != failed[1] {
			survivors = append(survivors, s)
		}
	}
	shrunk, err := part.ShrinkAfterLoss(survivors)
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
		nodes, res.ActiveNodes, failed[len(failed)-1]+1, failed)
	fmt.Printf("rolled back to iteration %d, recovery cost %.4g s simulated\n",
		res.RecoveredAt, res.RecoveryTime)

	maxErr := 0.0
	for i := range xstar {
		maxErr = math.Max(maxErr, math.Abs(res.X[i]-xstar[i]))
	}
	fmt.Printf("max error against the known solution: %.2e\n", maxErr)
	fmt.Printf("trajectory matches the reference within %+d iterations\n",
		res.Iterations-ref.Iterations)
}
