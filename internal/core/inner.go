package core

import (
	"fmt"
	"math"

	"esrp/internal/replay"
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
//
// The iterations are the outer solve's (cg), with all of their compute
// under KindInnerSolve so the nested PCG is distinguishable from outer-loop
// work on the timeline (its collectives and SpMV halves keep their own
// kinds). Only the bootstrap and the exit differ: x0 = 0, so r0 = w needs no
// SpMV, and the one reduction takes r·z and ‖w‖² together; the solve stops
// when p·q == 0, when ‖r‖₂/‖w‖₂ < cfg.InnerRtol (exactly, since x0 = 0), or
// after 100·|If| iterations (|If| = the inner system's rows). The halo it
// ships counts into this rank's measured-halo counter.
func (run *nodeRun) innerSolve(ev *esrEvent, w []float64) []float64 {
	rebuilders, kind := ev.failed, setupInner
	if ev.adopter >= 0 {
		rebuilders, kind = []int{ev.adopter}, setupInnerSeq
	}
	sys := run.innerSystem(kind, ev.failed, ev.flo, ev.fhi)
	nd := run.subOf(rebuilders)
	me := nd.Rank()
	lo, hi := sys.part.Lo(me), sys.part.Hi(me)
	m := hi - lo
	local, err := sparse.NewLocal(sys.a, lo, hi, sys.plan.Ghost(me))
	if err != nil {
		panic(fmt.Sprintf("core: inner local matrix: %v", err))
	}
	c := cg{
		nd: nd, pc: ev.pc, kern: sparse.BuildKernel(local, run.cfg.kernel),
		ex: *sys.plan.NewExchanger(me), blocking: run.cfg.blocking, m: m,
		x: make([]float64, m), r: append([]float64(nil), w...),
		z: make([]float64, m), p: make([]float64, m),
		q: make([]float64, m), pg: make([]float64, m+local.G()),
		vecWork: replay.WorkInnerSolve, pcWork: replay.WorkInnerSolve,
	}
	c.pc.Apply(c.z, c.r)
	c.nd.Compute(c.pcWork, c.pc.ApplyFlops())
	copy(c.p, c.z)
	rzLoc := vec.Dot(c.r, c.z)
	bbLoc := vec.Dot(w, w)
	c.nd.Compute(c.vecWork, 4*float64(m))
	var bb float64
	c.rz, bb = c.dot2(rzLoc, bbLoc)
	if wNorm := math.Sqrt(bb); wNorm != 0 { // zero rhs: zero solution
		for range 100 * sys.a.Rows {
			c.spmv(c.q, c.p)
			pq := c.pAq()
			if pq == 0 {
				break
			}
			c.update(c.rz / pq)
			if _, rr := c.step(); math.Sqrt(rr)/wNorm < run.cfg.InnerRtol {
				break
			}
		}
	}
	run.ex.AddHaloBytes(c.ex.HaloBytes()) // the reconstruction's SpMV halo counts too
	return c.x
}
