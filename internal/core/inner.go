package core

import (
	"fmt"
	"math"

	"esrp/internal/cluster"
	"esrp/internal/obs"
	"esrp/internal/precond"
	"esrp/internal/sparse"
	"esrp/internal/vec"
)

// innerSolve solves A[If,If]·x_If = w (line 8 of Alg. 2) over the event's
// rebuilders, split by rebuilder, and returns this rank's share of x_If.
// With spares it runs as a distributed PCG across the replacement
// sub-communicator, reusing each node's block Jacobi preconditioner
// (identical blocks, since blocks are node-local). The adopter of a shrink,
// the one rebuilder, solves it whole with the failed nodes' blocks.
//
// A[If,If], its partition and its communication plan stand in for the
// rebuilders reloading static data from safe storage; like the paper,
// their cost is excluded from the modeled runtime (only Compute and message
// traffic advance the simulated clock). They are built once per event — by
// whichever rebuilder gets here first — and shared read-only (see
// recoverySetups); only the compact local matrix, its kernel and the
// exchanger are per rank.
func (run *nodeRun) innerSolve(ev *esrEvent, w []float64) []float64 {
	rebuilders, kind := ev.failed, setupInner
	if ev.adopter >= 0 {
		rebuilders, kind = []int{ev.adopter}, setupInnerSeq
	}
	x, halo := run.innerPCG(run.subOf(rebuilders), run.innerSystem(kind, ev.failed, ev.flo, ev.fhi), ev.pc, w)
	run.ex.AddHaloBytes(halo) // the reconstruction's SpMV halo counts too
	return x
}

// innerPCG is a plain distributed PCG without resilience, used for the
// reconstruction inner systems. nd is a (sub-)communicator handle whose
// rank corresponds to sys.part's parts; b is the local right-hand side
// block; the returned slice is the local solution block. Convergence:
// ‖r‖₂/‖b‖₂ < cfg.InnerRtol (exactly, since x0 = 0). Like the outer solver,
// the inner SpMV runs on the compact owned+ghost index space with the
// interior product overlapping the in-flight halo (unless blocking). The
// second return value is the halo payload this rank shipped during the
// solve, for the caller to fold into its measured-halo counter.
func (run *nodeRun) innerPCG(nd *cluster.Node, sys *staticSystem, pc precond.Preconditioner, b []float64) ([]float64, int64) {
	rtol, blocking := run.cfg.InnerRtol, run.cfg.BlockingExchange
	maxIter := run.cfg.InnerMaxIter
	if maxIter <= 0 {
		maxIter = 100 * sys.a.Rows
	}
	me := nd.Rank()
	lo, hi := sys.part.Lo(me), sys.part.Hi(me)
	m := hi - lo
	local, err := sparse.NewLocal(sys.a, lo, hi, sys.plan.Ghost(me))
	if err != nil {
		panic(fmt.Sprintf("core: inner local matrix: %v", err))
	}
	kern := sparse.BuildKernel(local, run.cfg.Kernel)
	ex := sys.plan.NewExchanger(me)

	x := make([]float64, m)
	r := append([]float64(nil), b...)
	z := make([]float64, m)
	p := make([]float64, m)
	q := make([]float64, m)
	pg := make([]float64, m+local.G())

	dot2 := func(u, v float64) (float64, float64) {
		buf := [2]float64{u, v}
		nd.Allreduce(cluster.OpSum, buf[:])
		return buf[0], buf[1]
	}
	// Inner-solve compute lands under its own span kind so the
	// reconstruction's nested PCG is distinguishable from outer-loop work
	// on the timeline (its collectives and SpMV halves keep their own kinds).
	compute := func(flops float64) {
		t0 := nd.Clock()
		nd.Compute(flops)
		nd.Trace().Span(obs.KindInnerSolve, t0, nd.Clock())
	}

	pc.Apply(z, r)
	compute(pc.ApplyFlops())
	copy(p, z)
	rzLoc := vec.Dot(r, z)
	bbLoc := vec.Dot(b, b)
	compute(4 * float64(m))
	rz, bb := dot2(rzLoc, bbLoc)
	bNorm := math.Sqrt(bb)
	if bNorm == 0 {
		return x, ex.HaloBytes() // zero rhs: zero solution
	}

	for it := 0; it < maxIter; it++ {
		copy(pg[:m], p)
		ex.MulOverlapped(nd, kern, q, pg, blocking)

		pqLoc := vec.Dot(p, q)
		compute(2 * float64(m))
		pq := nd.AllreduceScalar(cluster.OpSum, pqLoc)
		if pq == 0 {
			break
		}
		alpha := rz / pq
		vec.AxpyPair(alpha, p, x, -alpha, q, r)
		compute(4 * float64(m))
		pc.Apply(z, r)
		compute(pc.ApplyFlops())
		var rrLoc float64
		rzLoc, rrLoc = vec.Dot2(r, z)
		compute(4 * float64(m))
		rzNew, rr := dot2(rzLoc, rrLoc)
		beta := rzNew / rz
		vec.XpayInto(p, z, beta, p)
		compute(2 * float64(m))
		rz = rzNew
		if math.Sqrt(rr)/bNorm < rtol {
			break
		}
	}
	return x, ex.HaloBytes()
}
