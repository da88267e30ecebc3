package core

import (
	"esrp/internal/aspmv"
	"esrp/internal/cluster"
	"esrp/internal/obs"
	"esrp/internal/precond"
	"esrp/internal/sparse"
	"esrp/internal/vec"
)

// cg is one distributed PCG iteration's state and its three steps — the α
// reduction, the x/r update and the z/β/p step — shared by the outer solve
// (Alg. 1, which nodeRun embeds this in) and the reconstruction's inner
// solve of A[If,If]·x = w (Alg. 2 line 8). Each keeps only its own
// bootstrap, exit test and extras around the steps, so every modeled flop
// charge, collective and span of an iteration comes from one body.
type cg struct {
	// nd is the (sub-)communicator handle the iteration runs on; tr its
	// rank's observability buffer — nil with observation off (every obs.Rank
	// method no-ops on nil, so span sites carry no guards).
	nd *cluster.Node
	tr *obs.Rank

	pc       precond.Preconditioner
	kern     sparse.Kernel   // planned SpMV layout over the compact local rows
	ex       aspmv.Exchanger // halo exchange driver; by value, so an inner solve's stays on its stack
	blocking bool            // Config.BlockingExchange

	// Local blocks of m rows: x, r, z, p of the recurrence, q = A·p, and
	// pg, the owned+ghost SpMV input buffer of length m + ghosts.
	m                 int
	x, r, z, p, q, pg []float64
	rz                float64 // r·z of the current iteration

	// vecKind and pcKind label the vector and preconditioner work on the
	// span timeline: the inner solve lands all of it under KindInnerSolve.
	vecKind, pcKind obs.Kind
}

// compute advances the simulated clock by flops·FlopTime and attributes
// the interval to kind on the node's span timeline. With observation off
// this degenerates to nd.Compute: the clock reads are plain loads and the
// span call no-ops on the nil buffer — no branches worth measuring, no
// allocation, identical simulated time either way.
func (c *cg) compute(kind obs.Kind, flops float64) {
	t0 := c.nd.Clock()
	c.nd.Compute(flops)
	c.tr.Span(kind, t0, c.nd.Clock())
}

// dot2 performs the fused allreduce of two local partial sums, the way an
// optimized PCG batches its residual norms.
func (c *cg) dot2(a, b float64) (float64, float64) {
	buf := [2]float64{a, b}
	c.nd.Allreduce(cluster.OpSum, buf[:])
	return buf[0], buf[1]
}

// mul computes dst = A·src on the local rows through the planned kernel,
// the interior product overlapping the in-flight halo unless blocking. With
// augmented it is the ASpMV of iteration iter and returns the received
// redundant copy by value (a pointer would escape to the heap once per
// iteration).
func (c *cg) mul(dst, src []float64, augmented bool, iter int) aspmv.ReceivedCopy {
	copy(c.pg[:c.m], src)
	return c.ex.MulOverlapped(c.nd, c.kern, dst, c.pg, augmented, iter, c.blocking)
}

// spmv is mul over the plain exchange.
func (c *cg) spmv(dst, src []float64) { c.mul(dst, src, false, 0) }

// pAq reduces p·q, the denominator of α = r·z / p·(A p).
func (c *cg) pAq() float64 {
	pqLoc := vec.Dot(c.p, c.q)
	c.compute(c.vecKind, 2*float64(c.m))
	return c.nd.AllreduceScalar(cluster.OpSum, pqLoc)
}

// update advances x += α·p and r −= α·q.
func (c *cg) update(alpha float64) {
	vec.AxpyPair(alpha, c.p, c.x, -alpha, c.q, c.r)
	c.compute(c.vecKind, 4*float64(c.m))
}

// step derives z = P·r, reduces r·z next to r·r, and sets p = z + β·p. It
// returns β and the reduced r·r.
func (c *cg) step() (beta, rr float64) {
	c.pc.Apply(c.z, c.r)
	c.compute(c.pcKind, c.pc.ApplyFlops())
	rzLoc, rrLoc := vec.Dot2(c.r, c.z)
	c.compute(c.vecKind, 4*float64(c.m))
	rzNew, rr := c.dot2(rzLoc, rrLoc)
	beta = rzNew / c.rz
	vec.XpayInto(c.p, c.z, beta, c.p)
	c.compute(c.vecKind, 2*float64(c.m))
	c.rz = rzNew
	return beta, rr
}
