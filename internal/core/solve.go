package core

import (
	"fmt"
	"math"

	"esrp/internal/aspmv"
	"esrp/internal/cluster"
	"esrp/internal/dist"
	"esrp/internal/obs"
	"esrp/internal/precond"
	"esrp/internal/sparse"
	"esrp/internal/vec"
)

// Solve runs the configured PCG solve on a simulated cluster and returns the
// aggregated result. It is deterministic for a fixed configuration.
func Solve(cfg Config) (*Result, error) {
	return new(solveShared).solve(cfg)
}

// solve is Solve on this shared state, which must be fresh.
func (sh *solveShared) solve(in Config) (*Result, error) {
	var err error
	if sh.cfg, err = in.withDefaults(); err != nil {
		return nil, err
	}
	cfg := &sh.cfg
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
		run, err := newNodeRun(sh, nd, part, plan)
		if err != nil {
			panic(err)
		}
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

// nodeRun is the per-node solver state. All of it is O(local + halo): the
// node holds its block rows as a compact local matrix, its vector blocks,
// and an owned+ghost assembly buffer — never a full-length vector.
type nodeRun struct {
	cfg  *Config
	nd   *cluster.Node
	part *dist.Partition
	plan *aspmv.Plan
	pc   precond.Preconditioner

	// tr is this rank's observability buffer — nil with observation off
	// (every obs.Rank method no-ops on nil, so span sites carry no guards).
	// It lives on the cluster node's shared state, so it survives the
	// no-spare shrink's communicator replacement.
	tr *obs.Rank

	lo, hi   int // owned global index range
	m        int // local size
	nnzLocal float64

	// alloc provides the steady-state vector buffers: fresh makes by
	// default, workspace-recycled ones under Config.Workspace. alloc may
	// return dirty buffers (callers must fully overwrite before reading);
	// allocZero always clears, for vectors whose zero value is semantic.
	alloc     func(n int) []float64
	allocZero func(n int) []float64

	local *sparse.Local    // block rows in the compact owned+ghost index space
	kern  sparse.Kernel    // planned SpMV layout over those rows (Config.Kernel)
	ex    *aspmv.Exchanger // halo exchange driver (Start/Finish halves)

	// Dynamic solver state (local blocks). These are exactly the data a
	// node failure destroys.
	x, r, z, p  []float64
	q           []float64 // local rows of A·p
	pg          []float64 // owned+ghost SpMV input buffer, length m + g
	rz          float64   // r·z of the current iteration
	betaPrev    float64   // β of the previous iteration
	bNormGlobal float64

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
	// event. Not part of stateBytes: the peak accounting (notePeak) already
	// samples these live during recovery.
	recPrev, recCur, recW []float64
	recCovered            []int
	sendScratch           []float64

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

func newNodeRun(sh *solveShared, nd *cluster.Node, part *dist.Partition, plan *aspmv.Plan) (*nodeRun, error) {
	cfg := &sh.cfg
	s := nd.Rank()
	lo, hi := part.Lo(s), part.Hi(s)
	var pc precond.Preconditioner
	var local *sparse.Local
	var kern sparse.Kernel
	if prep := cfg.Prepared; prep != nil {
		// The shared context already built (and validated) this rank's
		// preconditioner, compact local matrix and planned kernel.
		pc, local, kern = prep.pcs[s], prep.locals[s], prep.kerns[s]
	} else {
		var err error
		pc, err = precond.Build(cfg.PrecondKind, cfg.A, lo, hi, cfg.MaxBlock)
		if err != nil {
			return nil, err
		}
		if pc.CouplesAcrossNodes() {
			return nil, fmt.Errorf("core: preconditioners coupling across node boundaries are not supported by the reconstruction")
		}
		local, err = sparse.NewLocal(cfg.A, lo, hi, plan.Ghost(s))
		if err != nil {
			return nil, fmt.Errorf("core: local matrix extraction: %w", err)
		}
		kern = sparse.BuildKernel(local, cfg.Kernel)
	}
	// Fresh makes by default; workspace-recycled buffers under
	// Config.Workspace. Only x needs the cleared variant (zero initial
	// guess); every other vector is fully overwritten before its first read
	// (bootstrap computes r, z, p, q and the exchange fills pg's ghost run).
	alloc := func(n int) []float64 { return make([]float64, n) }
	allocZero := alloc
	if ws := cfg.Workspace; ws != nil {
		na := ws.node(nd.GlobalRank())
		alloc, allocZero = na.grab, na.grabZero
	}
	run := &nodeRun{
		cfg: cfg, setups: &sh.setups, nd: nd, part: part, plan: plan, pc: pc, tr: nd.Trace(),
		lo: lo, hi: hi, m: hi - lo, nnzLocal: float64(local.NNZ()),
		local: local, kern: kern, ex: plan.NewExchanger(s), alloc: alloc, allocZero: allocZero,
		x: allocZero(hi - lo), r: alloc(hi - lo),
		z: alloc(hi - lo), p: alloc(hi - lo),
		q: alloc(hi - lo), pg: alloc(hi - lo + local.G()),
		events: cfg.Failures, phi: cfg.Phi,
		sparesLeft: initialSpares(cfg),
	}
	switch cfg.Strategy {
	case StrategyESR, StrategyESRP:
		run.res = newESRState(run)
	case StrategyIMCR:
		run.res = newIMCRState(run)
	}
	return run, nil
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

// spmv computes q = (A·p) on the local rows via the compact halo exchange,
// dispatched through the node's planned kernel (run.kern). Unless
// cfg.BlockingExchange, the interior-rows product runs between the exchange's
// Start and Finish halves, hiding the halo latency behind local compute on
// the simulated clock. If augmented, the received redundant copy is returned
// by value (ok=true) for the caller to retain — a pointer here would escape
// to the heap once per iteration.
func (run *nodeRun) spmv(augmented bool, iter int) (rc aspmv.ReceivedCopy, ok bool) {
	if !augmented {
		run.spmvInto(run.q, run.p)
		return aspmv.ReceivedCopy{}, false
	}
	copy(run.pg[:run.m], run.p)
	rc = run.ex.MulOverlappedAugmented(run.nd, run.kern, run.q, run.pg, iter, run.cfg.BlockingExchange)
	return rc, true
}

// spmvInto computes dst = A·src on the local rows via the plain compact
// exchange, with the same overlap scheme as spmv. src has length m.
func (run *nodeRun) spmvInto(dst, src []float64) {
	copy(run.pg[:run.m], src)
	run.ex.MulOverlapped(run.nd, run.kern, dst, run.pg, run.cfg.BlockingExchange)
}

// compute advances the simulated clock by flops·FlopTime and attributes
// the interval to kind on the node's span timeline. With observation off
// this degenerates to nd.Compute: the clock reads are plain loads and the
// span call no-ops on the nil buffer — no branches worth measuring, no
// allocation, identical simulated time either way.
func (run *nodeRun) compute(kind obs.Kind, flops float64) {
	t0 := run.nd.Clock()
	run.nd.Compute(flops)
	run.tr.Span(kind, t0, run.nd.Clock())
}

// dot2 performs the fused allreduce of two local partial sums, the way an
// optimized PCG batches its residual norms.
func (run *nodeRun) dot2(a, b float64) (float64, float64) {
	buf := [2]float64{a, b}
	run.nd.Allreduce(cluster.OpSum, buf[:])
	return buf[0], buf[1]
}

// bootstrap initializes r, z, p, rz and the global ‖b‖ from x0 (line 1 of
// Alg. 1) and returns the initial relative residual ‖r₀‖/‖b‖.
func (run *nodeRun) bootstrap() float64 {
	bLoc := run.cfg.B[run.lo:run.hi]
	if run.cfg.X0 != nil {
		copy(run.x, run.cfg.X0[run.lo:run.hi])
	}
	// r = b - A x0 (reuses the SpMV path with p := x).
	copy(run.p, run.x)
	run.spmv(false, -1)
	vec.Sub(run.r, bLoc, run.q)
	run.compute(obs.KindVec, float64(run.m))
	run.pc.Apply(run.z, run.r)
	run.compute(obs.KindPrecond, run.pc.ApplyFlops())
	copy(run.p, run.z)
	rzLoc, rrLoc := vec.Dot2(run.r, run.z)
	bbLoc := vec.Dot(bLoc, bLoc)
	run.compute(obs.KindVec, 6*float64(run.m))
	buf := [3]float64{rzLoc, bbLoc, rrLoc}
	run.nd.Allreduce(cluster.OpSum, buf[:])
	run.rz = buf[0]
	run.bNormGlobal = math.Sqrt(buf[1])
	if run.bNormGlobal == 0 {
		run.bNormGlobal = 1 // solving Ax=0: converge on absolute residual
	}
	return math.Sqrt(buf[2]) / run.bNormGlobal
}

// main is the SPMD body executed by every node. All communication goes
// through run.nd, which the no-spare-node recovery replaces with the
// surviving sub-communicator mid-solve; a node that failed in no-spare mode
// sets run.retired and drops out.
func (run *nodeRun) main(result *Result) {
	cfg := run.cfg
	relres := run.bootstrap()

	totalSteps := 0
	converged := relres < cfg.Rtol // x0 may already satisfy the tolerance
	j := 0
	for ; !converged && j < cfg.MaxIter; totalSteps++ {
		run.tr.SetIter(j)
		// Storage-stage bookkeeping and the (possibly augmented) SpMV.
		augmented := false
		if run.res != nil {
			augmented = run.res.beforeSpMV(j)
		}
		if rc, ok := run.spmv(augmented, j); ok {
			run.res.retain(rc)
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

		// α = r·z / p·(A p)
		pqLoc := vec.Dot(run.p, run.q)
		run.compute(obs.KindVec, 2*float64(run.m))
		pq := run.nd.AllreduceScalar(cluster.OpSum, pqLoc)
		alpha := run.rz / pq

		vec.AxpyPair(alpha, run.p, run.x, -alpha, run.q, run.r)
		run.compute(obs.KindVec, 4*float64(run.m))

		// Residual replacement (ref. 27): swap the recurrence residual for
		// the true residual before z, β and p are derived from it, so the
		// reconstruction recurrences stay valid.
		if rr := cfg.ResidualReplacementInterval; rr > 0 && (j+1)%rr == 0 {
			run.spmvInto(run.q, run.x)
			vec.Sub(run.r, run.cfg.B[run.lo:run.hi], run.q)
			run.compute(obs.KindVec, float64(run.m))
		}

		run.pc.Apply(run.z, run.r)
		run.compute(obs.KindPrecond, run.pc.ApplyFlops())

		rzLoc, rrLoc := vec.Dot2(run.r, run.z)
		run.compute(obs.KindVec, 4*float64(run.m))
		rzNew, rr := run.dot2(rzLoc, rrLoc)

		beta := rzNew / run.rz
		vec.XpayInto(run.p, run.z, beta, run.p)
		run.compute(obs.KindVec, 2*float64(run.m))

		run.rz = rzNew
		run.betaPrev = beta
		if run.res != nil {
			run.res.afterIteration(j, beta)
		}

		relres = math.Sqrt(rr) / run.bNormGlobal
		if cfg.RecordResiduals && run.nd.Rank() == 0 {
			run.residLog = append(run.residLog, relres)
		}
		// Series sample: only rank 0's buffer has the series enabled, so
		// this is a no-op everywhere else (and everywhere with obs off).
		run.tr.Point(totalSteps, j, relres, run.nd.Clock(), run.nd.BytesSent(), run.nd.MsgsSent())
		j++
		if relres < cfg.Rtol {
			converged = true
		}
	}

	run.tr.SetIter(-1) // epilogue: drift check and the final gather
	drift := run.residualDrift(relres)
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

// stateBytes returns this node's steady-state dynamic solver footprint in
// bytes: the local vector blocks, the owned+ghost SpMV buffer, and the
// strategy's redundant storage. Static shared data (matrix, plan,
// preconditioner) stands in for node-local files reloaded from safe storage
// and is excluded, as in the paper's measurement.
func (run *nodeRun) stateBytes() int64 {
	b := 8 * int64(len(run.x)+len(run.r)+len(run.z)+len(run.p)+len(run.q)+len(run.pg))
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
func (run *nodeRun) residualDrift(finalRelres float64) float64 {
	copy(run.p, run.x)
	run.spmv(false, -2)
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
	recNorm := finalRelres * run.bNormGlobal
	return (recNorm - trueNorm) / trueNorm
}
