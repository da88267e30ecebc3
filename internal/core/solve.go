package core

import (
	"math"

	"esrp/internal/aspmv"
	"esrp/internal/cluster"
	"esrp/internal/dist"
	"esrp/internal/obs"
	"esrp/internal/sparse"
	"esrp/internal/vec"
)

// Solve runs the configured PCG solve on a simulated cluster and returns the
// aggregated result. It is deterministic for a fixed configuration.
func Solve(cfg Config) (*Result, error) {
	return new(solveShared).solve(cfg, standardPCG)
}

// solve runs one solve of the recurrence newRec builds on this shared state,
// which must be fresh. It is the only place that sets up the communicator,
// attaches the recorders, runs the ranks and reduces their metric slots.
func (sh *solveShared) solve(in Config, newRec func(*nodeRun) recurrence) (*Result, error) {
	var err error
	if sh.cfg, err = in.withDefaults(); err != nil {
		return nil, err
	}
	cfg := &sh.cfg
	model := cluster.DefaultCostModel()
	if cfg.CostModel != nil {
		model = *cfg.CostModel
	}
	prep := cfg.Prepared
	if prep == nil {
		if prep, err = prepare(cfg); err != nil {
			return nil, err
		}
	} else if err := prep.compatibleWith(cfg); err != nil {
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
	// Per-node metric slots (each goroutine writes only its own index, like
	// comm's node states): collected host-side after the run so the
	// instrumentation costs nothing on the simulated clock.
	nodeMem := make([]int64, cfg.Nodes)
	nodeHalo := make([]int64, cfg.Nodes)
	nodeKern := make([]string, cfg.Nodes)
	runErr := comm.Run(func(nd *cluster.Node) {
		run := newNodeRun(sh, nd, prep, newRec)
		run.main(result)
		nodeMem[nd.GlobalRank()] = run.maxBytes()
		nodeHalo[nd.GlobalRank()] = run.ex.HaloBytes()
		nodeKern[nd.GlobalRank()] = run.kern.Name()
	})
	if runErr != nil {
		return nil, runErr
	}
	result.Kernels = nodeKern
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

// newRecorder materializes the config's observability options: nil unless
// something was asked for, so the disabled path costs nothing anywhere.
func newRecorder(cfg *Config) *obs.Recorder {
	if !cfg.Observe.Enabled() {
		return nil
	}
	return obs.NewRecorder(*cfg.Observe, cfg.Nodes)
}

// reduceFootprint condenses the per-node metric slots: the largest dynamic
// footprint any node held, and the halo traffic summed over nodes.
func reduceFootprint(nodeMem, nodeHalo []int64) (maxMem, halo int64) {
	for i := range nodeMem {
		maxMem = max(maxMem, nodeMem[i])
		halo += nodeHalo[i]
	}
	return maxMem, halo
}

// buildPartition returns the block row partition of the configured solve:
// uniform row counts by default, work-balanced contiguous ranges with
// cfg.BalanceNNZ. The balancing weight models a row's full per-iteration
// cost, not just its SpMV share: 2·nnz flops for the product plus ~16 for
// the row's share of the vector updates plus ~2·blockSize for the block
// Jacobi apply — otherwise balancing the product alone shifts the critical
// path to the vector work of the row-heavy nodes.
func buildPartition(cfg *Config) (*dist.Partition, error) {
	if !cfg.BalanceNNZ {
		return dist.NewBlockPartition(cfg.A.Rows, cfg.Nodes), nil
	}
	perRow := 16.0 + 2*float64(cfg.MaxBlock)
	weights := make([]float64, cfg.A.Rows)
	for i := range weights {
		weights[i] = 2*float64(cfg.A.RowPtr[i+1]-cfg.A.RowPtr[i]) + perRow
	}
	return dist.NewBalancedWeightPartition(weights, cfg.Nodes)
}

// PartitionFor returns the block row partition a solve of cfg would run on
// (defaults applied): the uniform split, or the weight-balanced one with
// cfg.BalanceNNZ. It exists so reporting layers can analyze the exact
// distribution the solver uses instead of re-deriving the weight model.
func PartitionFor(cfg Config) (*dist.Partition, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return buildPartition(&cfg)
}

// recurrence is the iteration body of one PCG variant: what is left to
// differ once the step loop, the failure handling, the checkpoint store and
// the epilogue are the driver's (nodeRun.main, handleFailure, imcrState).
// Standard PCG is the method set of *nodeRun itself (standardPCG), so a
// standard solve allocates nothing for it; pipelined PCG is *pipelined. The
// variant is chosen once, when the rank's nodeRun is built — neither the
// driver nor a recovery protocol asks which one it is running.
type recurrence interface {
	// bootstrap derives the recurrence state from the initial guess in x and
	// returns the initial relative residual (+Inf if the variant first
	// learns it at the head of step 0).
	bootstrap() float64
	// restart re-derives the state from the surviving iterand after a
	// failure there was nothing to roll back to.
	restart()
	// head is the part of iteration j before the failure-injection point.
	// It reports convergence detected there, in which case the step ends
	// uncounted; step is the loop-step index for the series sample.
	head(j, step int) (converged bool)
	// tail is the part after the injection point, strategy hook included
	// (res.afterIteration, before the variant's series sample if it samples
	// here: the sample's clock and traffic include a checkpoint).
	tail(j, step int) (converged bool)
	// checkpoint declares what an IMCR checkpoint holds — the blocks, in
	// payload order — and the phase of its schedule: a checkpoint is taken
	// after iteration j when j+offset is a positive multiple of T. It is
	// labelled j+1, the iteration the saved state starts, either way.
	checkpoint() (blocks [][]float64, offset int)
	// restoreScalars re-establishes the replicated scalars after the vectors
	// were restored; which ones there are decides its modeled cost.
	restoreScalars()
	// agreeOnRestart runs between the loss and the restart of a StrategyNone
	// recovery; root is the lowest surviving rank.
	agreeOnRestart(root int)
	// loseState zeroes the variant's own vectors and scalars (node failure);
	// extraBytes is their steady-state footprint beyond nodeRun's vectors.
	loseState()
	extraBytes() int64
}

// standardPCG is the recurrence of Alg. 1: nodeRun's own methods.
func standardPCG(run *nodeRun) recurrence { return run }

// nodeRun is the per-node solver state. All of it is O(local + halo): the
// node holds its block rows as a compact local matrix, its vector blocks,
// and an owned+ghost assembly buffer — never a full-length vector.
type nodeRun struct {
	// cg is the PCG iteration state: communicator handle, trace buffer
	// (it lives on the cluster node's shared state, so it survives the
	// no-spare shrink's communicator replacement), preconditioner, kernel,
	// exchanger and the dynamic vectors. x, r, z, p and the SpMV buffers are
	// exactly the data a node failure destroys; they serve every
	// recurrence, while z, rz and betaPrev are standard PCG's.
	cg
	rec recurrence // the PCG variant iterating on this state

	cfg  *Config
	part *dist.Partition
	plan *aspmv.Plan

	lo, hi int // owned global index range

	// alloc provides the steady-state vector buffers: fresh makes by
	// default, workspace-recycled ones under Config.Workspace. alloc may
	// return dirty buffers (callers must fully overwrite before reading);
	// allocZero always clears, for vectors whose zero value is semantic.
	alloc     func(n int) []float64
	allocZero func(n int) []float64

	local *sparse.Local // block rows in the compact owned+ghost index space

	betaPrev    float64 // β of the previous iteration
	bNormGlobal float64
	relres      float64 // latest ‖r‖/‖b‖ the recurrence sampled

	res resilience // strategy-specific redundant storage (nil for None)

	// Failure timeline state. Every node advances it identically (the
	// timeline is deterministic shared configuration), so no communication
	// is needed to agree on what fires when.
	events     []FailureSpec   // remaining-and-past events, cfg.Failures
	nextEvent  int             // index of the next unfired event
	sparesLeft int             // replacement nodes remaining (-1 = unlimited)
	phi        int             // effective redundancy of the current cluster
	eventLog   []RecoveryEvent // handled events, in order
	// setups is the solve-wide table that builds each recovery's static
	// data once per event for all participating ranks.
	setups *recoverySetups

	recoveryTime float64
	recoveredAt  int
	wastedIters  int
	recovered    bool
	retired      bool // no-spare shrink: this node failed and dropped out

	peakBytes int64 // transient recovery high-water mark (see notePeak)

	// Recovery scratch, grown on first use and reused across events, so
	// failure-heavy campaign cells do not re-allocate the gather buffers per
	// event: the gathered p′ pair and its coverage mask, the holder lists,
	// the adopter's rebuilt r and x halo, and w. Not part of stateBytes: the
	// peak accounting (notePeak) already samples these live during recovery.
	recPrev, recCur, recR, recX, recW []float64
	recCovered                        []int
	recHolders                        [][]int
	sendScratch                       []float64

	residLog []float64
}

// growF resizes buf to n floats, reusing its backing array when possible.
// The returned slice is zeroed.
func growF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// growI is growF for int slices.
func growI(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// newNodeRun sets up rank nd's state over the solve's shared context: its
// preconditioner, compact local matrix and planned kernel come from prep.
func newNodeRun(sh *solveShared, nd *cluster.Node, prep *Prepared, newRec func(*nodeRun) recurrence) *nodeRun {
	cfg := &sh.cfg
	s := nd.Rank()
	part, plan, local := prep.part, prep.plan, prep.locals[s]
	lo, hi := part.Lo(s), part.Hi(s)
	// Fresh makes by default; workspace-recycled buffers under
	// Config.Workspace. Only x needs the cleared variant (zero initial
	// guess); every other vector is fully overwritten before its first read
	// (the recurrence's bootstrap computes r, z, p, q, the exchange fills pg's
	// ghost run).
	alloc := func(n int) []float64 { return make([]float64, n) }
	allocZero := alloc
	if ws := cfg.Workspace; ws != nil {
		na := ws.node(nd.GlobalRank())
		alloc, allocZero = na.grab, na.grabZero
	}
	run := &nodeRun{
		cg: cg{
			nd: nd, tr: nd.Trace(), pc: prep.pcs[s], kern: prep.kerns[s], ex: *plan.NewExchanger(s),
			blocking: cfg.BlockingExchange, m: hi - lo,
			x: allocZero(hi - lo), r: alloc(hi - lo),
			z: alloc(hi - lo), p: alloc(hi - lo),
			q: alloc(hi - lo), pg: alloc(hi - lo + local.G()),
			vecKind: obs.KindVec, pcKind: obs.KindPrecond,
		},
		cfg: cfg, setups: &sh.setups, part: part, plan: plan,
		lo: lo, hi: hi, local: local, alloc: alloc, allocZero: allocZero,
		events: cfg.Failures, phi: cfg.Phi,
		sparesLeft: initialSpares(cfg),
	}
	if cfg.X0 != nil {
		copy(run.x, cfg.X0[lo:hi])
	}
	run.rec = newRec(run) // before the strategy: IMCR asks it for the checkpoint set
	switch cfg.Strategy {
	case StrategyESR, StrategyESRP:
		run.res = newESRState(run)
	case StrategyIMCR:
		run.res = newIMCRState(run)
	}
	return run
}

// initialSpares maps the config's pool knobs to the per-node counter:
// NoSpareNodes is the empty pool, Spares == 0 the unlimited one.
func initialSpares(cfg *Config) int {
	if cfg.NoSpareNodes {
		return 0
	}
	if cfg.Spares == 0 {
		return -1
	}
	return cfg.Spares
}

// dueEvent returns the timeline event firing at iteration j, or nil. It does
// not advance the cursor; handleFailure does once the event is processed.
func (run *nodeRun) dueEvent(j int) *FailureSpec {
	if run.nextEvent < len(run.events) && run.events[run.nextEvent].Iteration == j {
		return &run.events[run.nextEvent]
	}
	return nil
}

// pendingEvents reports whether unfired events remain on the timeline.
func (run *nodeRun) pendingEvents() bool { return run.nextEvent < len(run.events) }

// sample records the relative residual √rr/‖b‖ of iteration j — the residual
// log and rank 0's series point (a no-op on every other rank and with
// observation off) — and reports whether it meets the tolerance.
func (run *nodeRun) sample(step, j int, rr float64) bool {
	run.relres = math.Sqrt(rr) / run.bNormGlobal
	if run.cfg.RecordResiduals && run.nd.Rank() == 0 {
		run.residLog = append(run.residLog, run.relres)
	}
	run.tr.Point(step, j, run.relres, run.nd.Clock(), run.nd.BytesSent(), run.nd.MsgsSent())
	return run.relres < run.cfg.Rtol
}

// setBNorm installs the replicated ‖b‖ from the reduced b·b.
func (run *nodeRun) setBNorm(bb float64) {
	run.bNormGlobal = math.Sqrt(bb)
	if run.bNormGlobal == 0 {
		run.bNormGlobal = 1 // solving Ax=0: converge on absolute residual
	}
}

// trueResidual sets r = b − A·x, leaving A·x in q.
func (run *nodeRun) trueResidual() {
	run.spmv(run.q, run.x)
	vec.Sub(run.r, run.cfg.B[run.lo:run.hi], run.q)
	run.compute(obs.KindVec, float64(run.m))
}

// residualFromX computes r = b − A·x and z = P·r, and sets p = z: the part
// bootstrap and restart share. Their reductions differ (bootstrap also
// needs ‖r₀‖), and with them their modeled cost.
func (run *nodeRun) residualFromX() {
	run.trueResidual()
	run.pc.Apply(run.z, run.r)
	run.compute(obs.KindPrecond, run.pc.ApplyFlops())
	copy(run.p, run.z)
}

// bootstrap initializes r, z, p, rz and the global ‖b‖ from x0 (line 1 of
// Alg. 1) and returns the initial relative residual ‖r₀‖/‖b‖.
func (run *nodeRun) bootstrap() float64 {
	run.residualFromX()
	bLoc := run.cfg.B[run.lo:run.hi]
	rzLoc, rrLoc := vec.Dot2(run.r, run.z)
	bbLoc := vec.Dot(bLoc, bLoc)
	run.compute(obs.KindVec, 6*float64(run.m))
	buf := [3]float64{rzLoc, bbLoc, rrLoc}
	run.nd.Allreduce(cluster.OpSum, buf[:])
	run.rz = buf[0]
	run.setBNorm(buf[1])
	return math.Sqrt(buf[2]) / run.bNormGlobal
}

// restart recomputes r, z, p, rz and ‖b‖ from the current iterand: the
// Krylov process starts over, all built-up conjugacy discarded.
func (run *nodeRun) restart() {
	run.residualFromX()
	run.restoreScalars()
}

// restoreScalars re-establishes rz and ‖b‖ by one fused allreduce.
func (run *nodeRun) restoreScalars() {
	bLoc := run.cfg.B[run.lo:run.hi]
	rzLoc := vec.Dot(run.r, run.z)
	bbLoc := vec.Dot(bLoc, bLoc)
	run.compute(obs.KindVec, 4*float64(run.m))
	var bb float64
	run.rz, bb = run.dot2(rzLoc, bbLoc)
	run.setBNorm(bb)
}

// main is the SPMD body executed by every node, for every recurrence: the
// step loop with its failure-injection point, and the epilogue. All
// communication goes through run.nd, which the no-spare-node recovery
// replaces with the surviving sub-communicator mid-solve; a node that failed
// in no-spare mode sets run.retired and drops out.
func (run *nodeRun) main(result *Result) {
	cfg := run.cfg
	run.relres = run.rec.bootstrap()

	totalSteps := 0
	converged := run.relres < cfg.Rtol // x0 may already satisfy the tolerance
	j := 0
	for ; !converged && j < cfg.MaxIter; totalSteps++ {
		run.tr.SetIter(j)
		if run.rec.head(j, totalSteps) {
			converged = true
			break // met before the step's work: it does not count as a step
		}

		// Failure injection point: immediately after the SpMV communication
		// of the marked iteration, as in the paper's framework, so that the
		// redundant copies of this iteration (if it is a storage iteration)
		// have been pushed. Events fire in timeline order; strictly
		// ascending iterations guarantee each fires at most once even
		// across rollbacks.
		if ev := run.dueEvent(j); ev != nil {
			jrec, mode := run.handleFailure(j, ev)
			if run.retired {
				return // no-spare shrink: this node is gone
			}
			if mode != RecoverySkipped {
				run.wastedIters += j - jrec
				run.recoveredAt = jrec
				run.recovered = true
				j = jrec
				continue
			}
		}

		converged = run.rec.tail(j, totalSteps)
		j++
	}

	run.tr.SetIter(-1) // epilogue: drift check and the final gather
	drift := run.residualDrift()
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
		result.RelResidual = run.relres
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

// head is standard PCG's step up to the injection point: the storage-stage
// bookkeeping and the SpMV q = A·p, augmented in a storage iteration.
func (run *nodeRun) head(j, _ int) bool {
	augmented := run.res != nil && run.res.beforeSpMV(j)
	if rc := run.mul(run.q, run.p, augmented, j); augmented {
		run.res.retain(rc)
	}
	return false
}

// tail is the rest of Alg. 1's iteration j: α, the x and r updates, z, β, p.
// The residual norm it reduces next to r·z is the one sampled, so standard
// PCG learns of convergence at the end of the step that achieved it.
func (run *nodeRun) tail(j, step int) bool {
	run.update(run.rz / run.pAq())
	// Residual replacement (ref. 27): swap the recurrence residual for
	// the true residual before z, β and p are derived from it, so the
	// reconstruction recurrences stay valid.
	if rr := run.cfg.ResidualReplacementInterval; rr > 0 && (j+1)%rr == 0 {
		run.trueResidual()
	}
	beta, rr := run.step()
	run.betaPrev = beta
	if run.res != nil {
		run.res.afterIteration(j, beta)
	}
	return run.sample(step, j, rr)
}

// checkpoint: x, r, z, p after iterations T, 2T, … — the recovery point
// ESRP's storage stage at (j, j+1) yields.
func (run *nodeRun) checkpoint() ([][]float64, int) {
	return [][]float64{run.x, run.r, run.z, run.p}, 0
}

// agreeOnRestart: standard PCG restarts locally without a word.
func (run *nodeRun) agreeOnRestart(int) {}

func (run *nodeRun) loseState() { run.rz, run.betaPrev = 0, 0 }

func (run *nodeRun) extraBytes() int64 { return 0 }

// stateBytes returns this node's steady-state dynamic solver footprint in
// bytes: the local vector blocks, the owned+ghost SpMV buffer, and the
// recurrence's own vectors and the strategy's redundant storage. Static
// shared data (matrix, plan, preconditioner) stands in for node-local files
// reloaded from safe storage and is excluded, as in the paper's measurement.
func (run *nodeRun) stateBytes() int64 {
	b := 8*int64(len(run.x)+len(run.r)+len(run.z)+len(run.p)+len(run.q)+len(run.pg)) + run.rec.extraBytes()
	if run.res != nil {
		b += run.res.stateBytes()
	}
	return b
}

// notePeak samples a transient recovery high-water mark: the steady state
// plus extra bytes of live recovery scratch (reconstruction gathers, adopter
// repartitioning buffers, checkpoint payloads in flight). Result.MaxNodeBytes
// reports the larger of the end-of-solve steady state and this peak, so the
// memory figure stays honest across recovery-heavy scenarios.
func (run *nodeRun) notePeak(extra int64) {
	if b := run.stateBytes() + extra; b > run.peakBytes {
		run.peakBytes = b
	}
}

// maxBytes is the footprint reported per node: steady state or recovery
// peak, whichever is larger.
func (run *nodeRun) maxBytes() int64 {
	return max(run.stateBytes(), run.peakBytes)
}

// residualDrift evaluates Eq. 2 of the paper after convergence:
// (‖r‖₂ − ‖b−Ax‖₂) / ‖b−Ax‖₂, comparing the recurrence residual with the
// true residual of the final iterand.
func (run *nodeRun) residualDrift() float64 {
	run.spmv(run.q, run.x)
	bLoc := run.cfg.B[run.lo:run.hi]
	trueLoc := 0.0
	for i := 0; i < run.m; i++ {
		d := bLoc[i] - run.q[i]
		trueLoc += d * d
	}
	run.compute(obs.KindVec, 3*float64(run.m))
	trueSq := run.nd.AllreduceScalar(cluster.OpSum, trueLoc)
	trueNorm := math.Sqrt(trueSq)
	if trueNorm == 0 {
		return 0
	}
	recNorm := run.relres * run.bNormGlobal
	return (recNorm - trueNorm) / trueNorm
}
