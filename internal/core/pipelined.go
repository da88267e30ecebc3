package core

import (
	"fmt"
	"math"

	"esrp/internal/aspmv"
	"esrp/internal/cluster"
	"esrp/internal/dist"
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
// Pipelined PCG fuses the three dot products of an iteration into a single
// allreduce and hides it behind the preconditioner application and the
// SpMV. On the LogGP-modeled cluster the benefit appears directly: one
// synchronizing collective per iteration instead of two, which dominates
// when latency is high relative to local compute (the regime the method
// was designed for). Its known cost is also reproduced: the deeper
// auxiliary recurrences (s, q, z) drift further from the true residual
// than standard PCG (compare Result.Drift).
func SolvePipelined(in Config) (*Result, error) {
	sh := &solveShared{}
	var err error
	if sh.cfg, err = in.withDefaults(); err != nil {
		return nil, err
	}
	cfg := &sh.cfg
	if cfg.Strategy != StrategyNone && cfg.Strategy != StrategyIMCR {
		return nil, fmt.Errorf("core: pipelined PCG supports strategies none and IMCR, got %v (ESR for pipelined solvers is ref. 16's contribution)", cfg.Strategy)
	}
	if cfg.NoSpareNodes {
		return nil, fmt.Errorf("core: pipelined PCG does not support NoSpareNodes")
	}
	model := cluster.DefaultCostModel()
	if cfg.CostModel != nil {
		model = *cfg.CostModel
	}
	var part *dist.Partition
	var plan *aspmv.Plan
	if prep := cfg.Prepared; prep != nil {
		if err := prep.compatibleWith(cfg); err != nil {
			return nil, err
		}
		part, plan = prep.part, prep.plan
	} else if part, plan, err = buildPartitionPlan(cfg); err != nil {
		// Pipelined strategies (None/IMCR) never augment, so the shared
		// builder yields the plain plan here.
		return nil, err
	}
	if ws := cfg.Workspace; ws != nil {
		ws.reset(cfg.Nodes)
	}
	comm := cluster.New(cfg.Nodes, model)
	rec := newRecorder(cfg)
	comm.Observe(rec)
	comm.RecordSchedule(cfg.Record) // nil = recording off
	if cfg.HostStats != nil {
		comm.ObserveHost(cfg.HostStats)
	}
	result := &Result{}
	nodeMem := make([]int64, cfg.Nodes)
	nodeHalo := make([]int64, cfg.Nodes)
	runErr := comm.Run(func(nd *cluster.Node) {
		run, err := newPipeRun(sh, nd, part, plan)
		if err != nil {
			panic(err)
		}
		run.main(result)
		nodeMem[nd.GlobalRank()] = max(run.pipeStateBytes(), run.peakBytes)
		nodeHalo[nd.GlobalRank()] = run.ex.HaloBytes()
	})
	if runErr != nil {
		return nil, runErr
	}
	result.SimTime = comm.MaxClock()
	result.WallTime = comm.WallTime()
	result.BytesSent = comm.BytesSent()
	result.MsgsSent = comm.MsgsSent()
	result.MaxNodeBytes, result.HaloBytes = reduceFootprint(nodeMem, nodeHalo)
	if rec != nil {
		result.Trace = rec.Build(result.SimTime)
	}
	return result, nil
}

// pipeRun is the per-node state of the pipelined solver.
type pipeRun struct {
	*nodeRun // reuse partition/plan/preconditioner plumbing and counters

	// Pipelined state: u = P·r, w = A·u, and the auxiliary recurrences
	// s = A·p, q = P·s, z = A·q.
	u, w, s, qv, zv, mv, nv []float64
	gammaOld, alphaOld      float64

	ckpt *pipeCkpt // IMCR state (nil for StrategyNone)
}

// pipeCkpt is the pipelined IMCR checkpoint bookkeeping.
type pipeCkpt struct {
	buddies []int
	sources []int
	ownIter int
	ownData []float64
	held    map[int][]float64
}

func newPipeRun(sh *solveShared, nd *cluster.Node, part *dist.Partition, plan *aspmv.Plan) (*pipeRun, error) {
	cfg := &sh.cfg
	base, err := newNodeRun(sh, nd, part, plan)
	if err != nil {
		return nil, err
	}
	base.res = nil // the pipelined solver manages its own redundancy
	m := base.m
	// s, qv, zv and the base's p enter the first iteration's recurrences
	// multiplied by β = 0 — they must start as true zeros (0·NaN ≠ 0), so
	// they come from the clearing allocator. u, w, mv, nv are computed
	// before their first read and may reuse dirty workspace buffers.
	run := &pipeRun{
		nodeRun: base,
		u:       base.alloc(m), w: base.alloc(m),
		s: base.allocZero(m), qv: base.allocZero(m),
		zv: base.allocZero(m), mv: base.alloc(m),
		nv: base.alloc(m),
	}
	vec.Zero(run.p) // p was dirty-allocated by newNodeRun
	if cfg.Strategy == StrategyIMCR {
		n, rank := cfg.Nodes, nd.Rank()
		ck := &pipeCkpt{ownIter: -1, held: make(map[int][]float64)}
		for k := 1; k <= cfg.Phi; k++ {
			ck.buddies = append(ck.buddies, aspmv.Designated(rank, k, n))
		}
		for u := 0; u < n; u++ {
			if u == rank {
				continue
			}
			for k := 1; k <= cfg.Phi; k++ {
				if aspmv.Designated(u, k, n) == rank {
					ck.sources = append(ck.sources, u)
					break
				}
			}
		}
		run.ckpt = ck
	}
	return run, nil
}

// bootstrap establishes r, u = P·r, w = A·u and ‖b‖. SpMVs go through the
// embedded nodeRun's compact overlapped data path (spmvInto).
func (run *pipeRun) bootstrap() {
	bLoc := run.cfg.B[run.lo:run.hi]
	if run.cfg.X0 != nil {
		copy(run.x, run.cfg.X0[run.lo:run.hi])
	}
	run.spmvInto(run.q, run.x)
	vec.Sub(run.r, bLoc, run.q)
	run.compute(obs.KindVec, float64(run.m))
	run.pc.Apply(run.u, run.r)
	run.compute(obs.KindPrecond, run.pc.ApplyFlops())
	run.spmvInto(run.w, run.u)
	bb := vec.Dot(bLoc, bLoc)
	run.compute(obs.KindVec, 2*float64(run.m))
	bb = run.nd.AllreduceScalar(cluster.OpSum, bb)
	run.bNormGlobal = math.Sqrt(bb)
	if run.bNormGlobal == 0 {
		run.bNormGlobal = 1
	}
}

// restart re-derives the pipelined state from the current iterand, used by
// bootstrap-equivalent recovery paths (local restart after a failure).
func (run *pipeRun) restart() {
	run.bootstrap()
	vec.Zero(run.s)
	vec.Zero(run.qv)
	vec.Zero(run.zv)
	vec.Zero(run.p)
	run.gammaOld, run.alphaOld = 0, 0
}

func (run *pipeRun) main(result *Result) {
	cfg := run.cfg
	run.bootstrap()

	totalSteps := 0
	converged := false
	relres := math.Inf(1)
	j := 0
	firstIter := true
	for ; j < cfg.MaxIter; totalSteps++ {
		run.tr.SetIter(j)
		// Fused allreduce: γ = (r,u), δ = (w,u), ‖r‖² — the single
		// synchronization point per iteration, with the three local partial
		// sums fused into one sweep over r, u, w.
		gammaLoc, deltaLoc, rrLoc := vec.Dot3(run.r, run.u, run.w)
		buf := [3]float64{gammaLoc, deltaLoc, rrLoc}
		run.compute(obs.KindVec, 6*float64(run.m))
		run.nd.Allreduce(cluster.OpSum, buf[:])
		gamma, delta, rr := buf[0], buf[1], buf[2]
		relres = math.Sqrt(rr) / run.bNormGlobal
		if cfg.RecordResiduals && run.nd.Rank() == 0 {
			run.residLog = append(run.residLog, relres)
		}
		run.tr.Point(totalSteps, j, relres, run.nd.Clock(), run.nd.BytesSent(), run.nd.MsgsSent())
		if relres < cfg.Rtol {
			converged = true
			break
		}

		// Overlapped work: m = P·w, n = A·m (the SpMV whose halo exchange
		// hides the allreduce in a real implementation).
		run.pc.Apply(run.mv, run.w)
		run.compute(obs.KindPrecond, run.pc.ApplyFlops())
		run.spmvInto(run.nv, run.mv)

		// Failure injection point: after the SpMV of the marked iteration.
		// The pipelined solver supports the same multi-event timeline as the
		// standard path; it never shrinks, so events always apply.
		if ev := run.dueEvent(j); ev != nil {
			run.nextEvent++
			jrec, mode := run.pipeRecover(j, ev.Ranks)
			run.logEvent(ev, ev.Ranks, mode, jrec, j)
			run.wastedIters += j - jrec
			run.recoveredAt = jrec
			run.recovered = true
			j = jrec
			firstIter = run.gammaOld == 0 // restart path resets the recurrences
			continue
		}

		var alpha, beta float64
		if firstIter {
			beta = 0
			alpha = gamma / delta
		} else {
			beta = gamma / run.gammaOld
			alpha = gamma / (delta - beta*gamma/run.alphaOld)
		}
		firstIter = false

		// Auxiliary recurrences (z = A·q, q = P·s, s = A·p implicitly).
		vec.XpayInto(run.zv, run.nv, beta, run.zv)
		vec.XpayInto(run.qv, run.mv, beta, run.qv)
		vec.XpayInto(run.s, run.w, beta, run.s)
		vec.XpayInto(run.p, run.u, beta, run.p)
		vec.AxpyPair(alpha, run.p, run.x, -alpha, run.s, run.r)
		vec.AxpyPair(-alpha, run.qv, run.u, -alpha, run.zv, run.w)
		run.compute(obs.KindVec, 16*float64(run.m))

		run.gammaOld, run.alphaOld = gamma, alpha
		j++
		run.pipeCheckpoint(j)
	}

	run.tr.SetIter(-1)
	drift := run.pipeDrift(relres)
	run.nd.Sched().RTFinal() // this rank's recoveryTime enters the reduction
	recovery := run.nd.AllreduceScalar(cluster.OpMax, run.recoveryTime)
	xParts := run.nd.Gather(0, run.x)
	if run.nd.Rank() == 0 {
		x := make([]float64, cfg.A.Rows)
		for s, xp := range xParts {
			copy(x[run.part.Lo(s):run.part.Hi(s)], xp)
		}
		result.X = x
		result.Converged = converged
		result.Iterations = j
		result.TotalSteps = totalSteps
		result.RelResidual = relres
		result.RecoveryTime = recovery
		result.Recovered = run.recovered
		result.RecoveredAt = run.recoveredAt
		result.WastedIters = run.wastedIters
		result.Drift = drift
		result.Residuals = run.residLog
		result.ActiveNodes = run.nd.Size()
		result.Events = run.eventLog
	}
}

// pipeStateBytes extends the base footprint with the pipelined auxiliary
// recurrences and the IMCR checkpoint payloads.
func (run *pipeRun) pipeStateBytes() int64 {
	b := run.stateBytes()
	b += 8 * int64(len(run.u)+len(run.w)+len(run.s)+len(run.qv)+len(run.zv)+len(run.mv)+len(run.nv))
	if ck := run.ckpt; ck != nil {
		b += 8 * int64(len(ck.ownData))
		for _, d := range ck.held {
			b += 8 * int64(len(d))
		}
	}
	return b
}

// notePipePeak samples a transient recovery high-water mark against the
// pipelined steady state (the base notePeak would undercount the auxiliary
// recurrence vectors).
func (run *pipeRun) notePipePeak(extra int64) {
	if b := run.pipeStateBytes() + extra; b > run.peakBytes {
		run.peakBytes = b
	}
}

// pipeDrift evaluates Eq. 2 for the pipelined solver.
func (run *pipeRun) pipeDrift(finalRelres float64) float64 {
	run.spmvInto(run.q, run.x)
	bLoc := run.cfg.B[run.lo:run.hi]
	trueLoc := 0.0
	for i := 0; i < run.m; i++ {
		d := bLoc[i] - run.q[i]
		trueLoc += d * d
	}
	run.compute(obs.KindVec, 3*float64(run.m))
	trueNorm := math.Sqrt(run.nd.AllreduceScalar(cluster.OpSum, trueLoc))
	if trueNorm == 0 {
		return 0
	}
	return (finalRelres*run.bNormGlobal - trueNorm) / trueNorm
}

// pipeCheckpoint ships the full pipelined state to the buddies every T
// completed iterations (StrategyIMCR only). The payload restores the state
// at the start of iteration j, i.e. after the updates of iteration j−1.
func (run *pipeRun) pipeCheckpoint(j int) {
	ck := run.ckpt
	if ck == nil || j%run.cfg.T != 0 || j == 0 {
		return
	}
	m := run.m
	payload := ck.ownData[:0]
	if cap(payload) < 8*m+2 {
		payload = make([]float64, 0, 8*m+2)
	}
	for _, v := range [][]float64{run.x, run.r, run.u, run.w, run.p, run.s, run.qv, run.zv} {
		payload = append(payload, v...)
	}
	payload = append(payload, run.gammaOld, run.alphaOld)
	ck.ownIter = j
	ck.ownData = payload
	tCkpt := run.nd.Clock()
	for _, b := range ck.buddies {
		run.nd.Send(b, tagCheckpoint, payload)
	}
	for _, src := range ck.sources {
		if old := ck.held[src]; old != nil {
			run.nd.Release(old)
		}
		ck.held[src] = run.nd.Recv(src, tagCheckpoint)
	}
	run.tr.Span(obs.KindCheckpoint, tCkpt, run.nd.Clock())
}

// pipeRestore loads a checkpoint payload into the solver state.
func (run *pipeRun) pipeRestore(data []float64) {
	m := run.m
	if len(data) != 8*m+2 {
		panic(fmt.Sprintf("core: pipelined checkpoint size %d, want %d", len(data), 8*m+2))
	}
	for i, v := range [][]float64{run.x, run.r, run.u, run.w, run.p, run.s, run.qv, run.zv} {
		copy(v, data[i*m:(i+1)*m])
	}
	run.gammaOld, run.alphaOld = data[8*m], data[8*m+1]
}

// pipeLose zeroes the node's dynamic pipelined state.
func (run *pipeRun) pipeLose() {
	for _, v := range [][]float64{run.x, run.r, run.u, run.w, run.p, run.s, run.qv, run.zv, run.q, run.mv, run.nv, run.pg} {
		vec.Zero(v)
	}
	run.gammaOld, run.alphaOld = 0, 0
	run.bNormGlobal = 0
	if ck := run.ckpt; ck != nil {
		ck.ownIter = -1
		ck.ownData = nil
		ck.held = make(map[int][]float64)
	}
}

// pipeRecover handles an injected failure: IMCR rollback when a checkpoint
// exists, local restart otherwise.
func (run *pipeRun) pipeRecover(j int, failed []int) (int, string) {
	tEnv := run.nd.Clock()
	run.nd.Sched().EnvStart(j)
	run.tr.SetPhase(obs.PhaseRecovery)
	defer func() {
		run.tr.Envelope(j, tEnv, run.nd.Clock())
		run.nd.Sched().EnvEnd()
		run.tr.SetPhase(obs.PhaseSteady)
	}()
	if dt := run.cfg.DetectionTime; dt > 0 {
		tDet := run.nd.Clock()
		run.nd.AddClock(dt) // failure detection + communicator repair
		run.tr.Span(obs.KindDetect, tDet, run.nd.Clock())
		defer func() {
			run.recoveryTime += dt
			run.nd.Sched().RecCharge(dt)
		}()
	}
	amFailed := run.amFailed(failed)
	t0 := run.nd.Clock()
	run.nd.Sched().RecStart()
	if amFailed {
		run.pipeLose()
	}
	ck := run.ckpt

	root := run.lowestSurvivor(failed)
	var hdr [2]float64
	if run.nd.Rank() == root && ck != nil && ck.ownIter >= 0 {
		hdr = [2]float64{float64(ck.ownIter), 1}
	}
	run.nd.Bcast(root, hdr[:])
	jrec, recoverable := int(hdr[0]), hdr[1] != 0

	if !recoverable {
		run.restart()
		run.recoveryTime = math.Max(run.recoveryTime, run.nd.Clock()-t0)
		run.nd.Sched().RecEnd()
		return j, RecoveryRestart
	}

	n := run.cfg.Nodes
	tGather := run.nd.Clock()
	for _, fr := range failed {
		sender := -1
		for k := 1; k <= run.cfg.Phi; k++ {
			b := aspmv.Designated(fr, k, n)
			if !rankIsFailed(failed, b) {
				sender = b
				break
			}
		}
		if sender < 0 {
			panic(fmt.Sprintf("core: no surviving buddy for failed rank %d", fr))
		}
		me := run.nd.Rank()
		if me == sender {
			data, ok := ck.held[fr]
			if !ok {
				panic(fmt.Sprintf("core: buddy %d holds no pipelined checkpoint of %d", me, fr))
			}
			run.nd.Send(fr, tagCkptRestore, data)
		} else if me == fr {
			data := run.nd.Recv(sender, tagCkptRestore)
			run.notePipePeak(8 * int64(len(data))) // restore payload in flight
			run.pipeRestore(data)
			ck.ownIter = jrec
			ck.ownData = append(ck.ownData[:0], data...)
			run.nd.Release(data)
		}
	}
	if !amFailed {
		run.pipeRestore(ck.ownData)
	}
	run.tr.Span(obs.KindRecoverGather, tGather, run.nd.Clock())
	if run.pendingEvents() {
		// Re-run the checkpoint exchange for the restored state so that a
		// follow-up event whose surviving buddy is a just-recovered node
		// still finds a checkpoint to restore from (mirrors recoverIMCR).
		tCkpt := run.nd.Clock()
		for _, b := range ck.buddies {
			run.nd.Send(b, tagCheckpoint, ck.ownData)
		}
		for _, src := range ck.sources {
			if old := ck.held[src]; old != nil {
				run.nd.Release(old)
			}
			ck.held[src] = run.nd.Recv(src, tagCheckpoint)
		}
		run.tr.Span(obs.KindCheckpoint, tCkpt, run.nd.Clock())
	}
	// Re-establish ‖b‖ (replicated scalar lost on the failed nodes).
	bLoc := run.cfg.B[run.lo:run.hi]
	bb := vec.Dot(bLoc, bLoc)
	run.compute(obs.KindVec, 2*float64(run.m))
	run.bNormGlobal = math.Sqrt(run.nd.AllreduceScalar(cluster.OpSum, bb))
	if run.bNormGlobal == 0 {
		run.bNormGlobal = 1
	}
	run.recoveryTime = math.Max(run.recoveryTime, run.nd.Clock()-t0)
	run.nd.Sched().RecEnd()
	return jrec, RecoverySpare
}
