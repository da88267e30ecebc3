package core

import (
	"esrp/internal/aspmv"
	"esrp/internal/cluster"
	"esrp/internal/precond"
	"esrp/internal/replay"
	"esrp/internal/sparse"
	"esrp/internal/vec"
)

// cg is one distributed PCG iteration's state and its three steps — the α
// reduction, the x/r update and the z/β/p step — shared by the outer solve
// (Alg. 1, which nodeRun embeds this in) and the reconstruction's inner
// solve of A[If,If]·x = w (Alg. 2 line 8). Each keeps only its own
// bootstrap, exit test and extras around the steps, so every modeled flop
// charge and collective of an iteration comes from one body.
type cg struct {
	nd *cluster.Node // the (sub-)communicator handle the iteration runs on

	pc       precond.Preconditioner
	kern     sparse.Kernel   // planned SpMV layout over the compact local rows
	ex       aspmv.Exchanger // halo exchange driver; by value, so an inner solve's stays on its stack
	blocking bool            // Config.blocking

	// Local blocks of m rows: x, r, z, p of the recurrence, q = A·p, and
	// pg, the owned+ghost SpMV input buffer of length m + ghosts.
	m                 int
	x, r, z, p, q, pg []float64
	rz                float64 // r·z of the current iteration

	// vecWork and pcWork label the vector and preconditioner flops: the
	// inner solve spends all of them on WorkInnerSolve.
	vecWork, pcWork replay.Work
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
	c.nd.Compute(c.vecWork, 2*float64(c.m))
	return c.nd.AllreduceScalar(cluster.OpSum, pqLoc)
}

// update advances x += α·p and r −= α·q.
func (c *cg) update(alpha float64) {
	vec.AxpyPair(alpha, c.p, c.x, -alpha, c.q, c.r)
	c.nd.Compute(c.vecWork, 4*float64(c.m))
}

// step derives z = P·r, reduces r·z next to r·r, and sets p = z + β·p. It
// returns β and the reduced r·r.
func (c *cg) step() (beta, rr float64) {
	c.pc.Apply(c.z, c.r)
	c.nd.Compute(c.pcWork, c.pc.ApplyFlops())
	rzLoc, rrLoc := vec.Dot2(c.r, c.z)
	c.nd.Compute(c.vecWork, 4*float64(c.m))
	rzNew, rr := c.dot2(rzLoc, rrLoc)
	beta = rzNew / c.rz
	vec.XpayInto(c.p, c.z, beta, c.p)
	c.nd.Compute(c.vecWork, 2*float64(c.m))
	c.rz = rzNew
	return beta, rr
}
