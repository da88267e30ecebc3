package core

import (
	"fmt"
	"math"

	"esrp/internal/cluster"
	"esrp/internal/obs"
	"esrp/internal/vec"
)

// SolvePipelined runs the communication-hiding pipelined PCG variant
// (Ghysels & Vanroose 2014) on the simulated cluster. The paper's related
// work [16] (Levonyak, Pacher, Gansterer, PP 2020) extends ESR to exactly
// this solver; here the pipelined solver is provided as a substrate with
// the strategies whose correctness does not depend on [16]'s additional
// redundancy machinery:
//
//   - StrategyNone — plain pipelined PCG; an injected failure triggers a
//     local restart from the surviving iterand.
//   - StrategyIMCR — in-memory buddy checkpointing of the full pipelined
//     state (eight vectors plus the two recurrence scalars) every T
//     iterations, with exact rollback.
//
// Everything else is rejected up front: StrategyESR / StrategyESRP (and with
// them a finite spare pool), NoSpareNodes, and ResidualReplacementInterval > 0
// (replacing r alone would leave u, w and the auxiliary recurrences
// inconsistent with it).
//
// Pipelined PCG fuses the three dot products of an iteration into a single
// allreduce and hides it behind the preconditioner application and the
// SpMV. On the LogGP-modeled cluster the benefit appears directly: one
// synchronizing collective per iteration instead of two, which dominates
// when latency is high relative to local compute (the regime the method
// was designed for). Its known cost is also reproduced: the deeper
// auxiliary recurrences (s, q, z) drift further from the true residual
// than standard PCG (compare Result.Drift).
func SolvePipelined(cfg Config) (*Result, error) {
	if err := validatePipelined(&cfg); err != nil {
		return nil, err
	}
	return new(solveShared).solve(cfg, newPipelined)
}

// validatePipelined holds every rejection specific to the pipelined solver;
// the general validation (Config.withDefaults) follows in solve.
func validatePipelined(cfg *Config) error {
	switch {
	case cfg.Strategy != StrategyNone && cfg.Strategy != StrategyIMCR:
		return fmt.Errorf("core: pipelined PCG supports strategies none and IMCR, got %v (ESR for pipelined solvers is ref. 16's contribution)", cfg.Strategy)
	case cfg.NoSpareNodes:
		return fmt.Errorf("core: pipelined PCG does not support NoSpareNodes")
	case cfg.ResidualReplacementInterval > 0:
		return fmt.Errorf("core: pipelined PCG does not support ResidualReplacementInterval")
	}
	return nil
}

// pipelined is the pipelined PCG recurrence over a nodeRun: it iterates on
// the run's x, r, p (and uses its q as A·x scratch) plus the state below.
type pipelined struct {
	run *nodeRun

	// u = P·r, w = A·u, the auxiliary recurrences s = A·p, q = P·s, z = A·q,
	// and the step's overlapped work m = P·w, n = A·m.
	u, w, s, q, z, m, n []float64
	// prev is γ and α of the previous iteration, zero before the first one
	// of a Krylov process (β = 0). A block, not two fields, so that it rides
	// in the checkpoint set like the vectors.
	prev [2]float64
	// gamma, delta: the step's reduced (r,u) and (w,u), from head to tail.
	gamma, delta float64
}

func newPipelined(run *nodeRun) recurrence {
	pp := &pipelined{run: run}
	// All seven may be dirty workspace buffers: u, w, m, n are computed
	// before their first read, and bootstrap zeroes s, q, z with p.
	for _, v := range []*[]float64{&pp.u, &pp.w, &pp.s, &pp.q, &pp.z, &pp.m, &pp.n} {
		*v = run.alloc(run.m)
	}
	return pp
}

// bootstrap is a restart from x0; ‖r₀‖ is first reduced at the head of
// step 0, so there is no initial residual to report yet.
func (pp *pipelined) bootstrap() float64 {
	pp.restart()
	return math.Inf(1)
}

// restart establishes r = b − A·x, u = P·r, w = A·u and ‖b‖ from the
// current iterand and resets the recurrences. s, q, z, p enter the next
// iteration multiplied by β = 0, so they must be true zeros (0·NaN ≠ 0).
func (pp *pipelined) restart() {
	run := pp.run
	run.trueResidual()
	run.pc.Apply(pp.u, run.r)
	run.compute(obs.KindPrecond, run.pc.ApplyFlops())
	run.spmv(pp.w, pp.u)
	pp.restoreScalars()
	for _, v := range [][]float64{pp.s, pp.q, pp.z, run.p} {
		vec.Zero(v)
	}
	pp.prev = [2]float64{}
}

// restoreScalars: ‖b‖ is the only replicated scalar that is not part of the
// checkpoint set.
func (pp *pipelined) restoreScalars() {
	run := pp.run
	bLoc := run.cfg.B[run.lo:run.hi]
	bb := vec.Dot(bLoc, bLoc)
	run.compute(obs.KindVec, 2*float64(run.m))
	run.setBNorm(run.nd.AllreduceScalar(cluster.OpSum, bb))
}

// head: the fused allreduce of γ = (r,u), δ = (w,u) and ‖r‖² — the single
// synchronization point per iteration, the three local partial sums taken
// in one sweep over r, u, w — then the convergence test on the residual
// just reduced (sampled here, at the top of the step), then the overlapped
// work m = P·w, n = A·m (the SpMV whose halo exchange hides the allreduce
// in a real implementation).
func (pp *pipelined) head(j, step int) bool {
	run := pp.run
	var buf [3]float64
	buf[0], buf[1], buf[2] = vec.Dot3(run.r, pp.u, pp.w)
	run.compute(obs.KindVec, 6*float64(run.m))
	run.nd.Allreduce(cluster.OpSum, buf[:])
	pp.gamma, pp.delta = buf[0], buf[1]
	if run.sample(step, j, buf[2]) {
		return true
	}
	run.pc.Apply(pp.m, pp.w)
	run.compute(obs.KindPrecond, run.pc.ApplyFlops())
	run.spmv(pp.n, pp.m)
	return false
}

// tail: α, β and the eight vector recurrences (z = A·q, q = P·s, s = A·p
// hold implicitly).
func (pp *pipelined) tail(j, _ int) bool {
	run := pp.run
	gamma, delta := pp.gamma, pp.delta
	beta, alpha := 0.0, gamma/delta
	if gammaOld, alphaOld := pp.prev[0], pp.prev[1]; gammaOld != 0 {
		beta = gamma / gammaOld
		alpha = gamma / (delta - beta*gamma/alphaOld)
	}
	vec.XpayInto(pp.z, pp.n, beta, pp.z)
	vec.XpayInto(pp.q, pp.m, beta, pp.q)
	vec.XpayInto(pp.s, pp.w, beta, pp.s)
	vec.XpayInto(run.p, pp.u, beta, run.p)
	vec.AxpyPair(alpha, run.p, run.x, -alpha, pp.s, run.r)
	vec.AxpyPair(-alpha, pp.q, pp.u, -alpha, pp.z, pp.w)
	run.compute(obs.KindVec, 16*float64(run.m))
	pp.prev = [2]float64{gamma, alpha}
	if run.res != nil {
		run.res.afterIteration(j, beta)
	}
	return false
}

// checkpoint: the full pipelined state — eight vectors and γ, α — after
// iterations T−1, 2T−1, …, i.e. once T, 2T, … iterations have completed.
func (pp *pipelined) checkpoint() ([][]float64, int) {
	run := pp.run
	return [][]float64{run.x, run.r, pp.u, pp.w, run.p, pp.s, pp.q, pp.z, pp.prev[:]}, 1
}

// agreeOnRestart: pipelined PCG's StrategyNone recovery is its checkpoint
// recovery with nothing stored — the lowest survivor still announces that
// there is no checkpoint, one small broadcast on the simulated clock.
func (pp *pipelined) agreeOnRestart(root int) {
	var none [2]float64
	pp.run.nd.Bcast(root, none[:])
}

func (pp *pipelined) loseState() {
	for _, v := range [][]float64{pp.u, pp.w, pp.s, pp.q, pp.z, pp.m, pp.n} {
		vec.Zero(v)
	}
	pp.prev = [2]float64{}
}

func (pp *pipelined) extraBytes() int64 {
	return 8 * int64(len(pp.u)+len(pp.w)+len(pp.s)+len(pp.q)+len(pp.z)+len(pp.m)+len(pp.n))
}
