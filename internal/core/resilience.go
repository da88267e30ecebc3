package core

import (
	"fmt"
	"math"

	"esrp/internal/aspmv"
	"esrp/internal/cluster"
	"esrp/internal/obs"
	"esrp/internal/vec"
)

// Message tags of the recovery protocols (disjoint from aspmv's tag range).
const (
	tagRecoverP0   = 200 // redundant p entries for iteration jrec-1
	tagRecoverP1   = 201 // redundant p entries for iteration jrec
	tagRecoverX    = 202 // halo of the surviving iterand for Alg. 2 line 7
	tagCheckpoint  = 210 // IMCR checkpoint shipment
	tagCkptRestore = 211 // IMCR checkpoint retrieval after a failure
	tagInnerGather = 220 // gathered-inner-solve ablation scatter
)

// resilience is the per-node strategy hook interface invoked by the solver
// loop. Implementations store redundant data; the recovery protocols
// themselves live on nodeRun because they orchestrate all nodes.
type resilience interface {
	// beforeSpMV is called at the top of iteration j, before the halo
	// exchange. It returns whether the exchange must be augmented, and may
	// duplicate local state (the paper's starred copies).
	beforeSpMV(j int) (augmented bool)
	// retain stores the redundant copy received by an augmented exchange.
	retain(rc aspmv.ReceivedCopy)
	// afterIteration is called after β of iteration j has been computed.
	afterIteration(j int, beta float64)
	// lose destroys all redundant data held by this node (node failure).
	lose()
	// stateBytes returns the redundant storage held, in bytes, for the
	// per-node memory accounting (Result.MaxNodeBytes).
	stateBytes() int64
}

// esrState implements redundant storage for ESR (T = 1) and ESRP (T > 2):
// the depth-3 redundancy queue plus the starred local duplicates
// x*, r*, z*, p*, β* and the staging scalar β** of Alg. 3.
type esrState struct {
	run   *nodeRun
	t     int // storage interval; 1 = ESR
	queue *aspmv.Queue

	xs, rs, zs, ps []float64 // starred copies (ESRP only)
	betaStar       float64
	betaPending    float64 // β** of Alg. 3
	starsIter      int     // iteration the starred copies belong to; -1 none
	hasStars       bool
}

func newESRState(run *nodeRun) *esrState {
	depth := 3
	if run.cfg.Strategy == StrategyESR {
		depth = 2 // copies of two successive iterations always present
	}
	return &esrState{
		run: run, t: run.cfg.T, queue: aspmv.NewQueue(depth),
		xs: run.alloc(run.m), rs: run.alloc(run.m),
		zs: run.alloc(run.m), ps: run.alloc(run.m),
		starsIter: -1,
	}
}

func (st *esrState) beforeSpMV(j int) bool {
	if st.t == 1 { // ESR: augment every iteration, no rollback state needed
		return true
	}
	switch {
	case j%st.t == 0 && j > 2: // first storage-stage iteration (Alg. 3 l.4)
		return true
	case (j-1)%st.t == 0 && j > 2: // second storage-stage iteration (l.7)
		// Duplicate the local state for iteration j; these copies are what
		// the surviving nodes reset to after a rollback (Alg. 3 l.9-10).
		st.star(j, st.betaPending)
		return true
	}
	return false
}

func (st *esrState) retain(rc aspmv.ReceivedCopy) {
	// Recycle the evicted copy's value buffer: steady-state ESR iterations
	// then reuse the same storage instead of growing the heap.
	if old, ok := st.queue.Push(rc); ok {
		st.run.ex.Recycle(old.Val)
	}
}

func (st *esrState) afterIteration(j int, beta float64) {
	// β of the first storage-stage iteration is the scalar the next
	// reconstruction will need (Alg. 3 l.6); it must not overwrite β* until
	// the stage completes.
	if st.t > 1 && j%st.t == 0 && j > 2 {
		st.betaPending = beta
	}
}

// stateBytes counts the starred duplicates and the queued copies' values
// (the copies' index layout is plan-static and shared, hence excluded).
func (st *esrState) stateBytes() int64 {
	b := 8 * int64(len(st.xs)+len(st.rs)+len(st.zs)+len(st.ps))
	return b + st.queue.ValBytes()
}

func (st *esrState) lose() {
	st.queue.Reset()
	vec.Zero(st.xs)
	vec.Zero(st.rs)
	vec.Zero(st.zs)
	vec.Zero(st.ps)
	st.betaStar, st.betaPending = 0, 0
	st.starsIter, st.hasStars = -1, false
}

// star duplicates the node's x, r, z, p as the starred state of iteration j,
// with β* the scalar a reconstruction at j needs.
func (st *esrState) star(j int, betaStar float64) {
	copy(st.xs, st.run.x)
	copy(st.rs, st.run.r)
	copy(st.zs, st.run.z)
	copy(st.ps, st.run.p)
	st.betaStar = betaStar
	st.starsIter = j
	st.hasStars = true
}

// rollBack resets a surviving node to the starred duplicates, so that all
// nodes continue from the reconstructed iteration. ESR keeps none (it
// reconstructs the current iteration), nor does ESRP before its first stage.
func (st *esrState) rollBack() {
	if st.hasStars {
		copy(st.run.x, st.xs)
		copy(st.run.r, st.rs)
		copy(st.run.z, st.zs)
		copy(st.run.p, st.ps)
	}
}

// header is what the lowest surviving rank announces after a failure in
// iteration j: [reconstruction iteration, β*, recoverable] (the paper's
// "retrieve the redundant copy of β", Alg. 2 line 3). All zero means no
// storage stage has completed yet.
func (st *esrState) header(j int) (hdr [3]float64) {
	switch {
	case st.t == 1 && j >= 1:
		// ESR reconstructs iteration j from p′^(j−1) and p′^(j): both exist
		// once at least one full iteration has completed.
		hdr = [3]float64{float64(j), st.run.betaPrev, 1}
	case st.t > 1 && st.hasStars:
		hdr = [3]float64{float64(st.starsIter), st.betaStar, 1}
	}
	return hdr
}

// resume re-establishes the replicated scalars after a reconstruction: rz
// and ‖b‖ by the recurrence's allreduce, the β bookkeeping from β* so that
// the resumed storage stage re-saves identical data.
func (st *esrState) resume(betaStar float64) {
	st.run.rec.restoreScalars()
	st.run.betaPrev = betaStar
	st.betaPending = betaStar
}

// imcrState implements in-memory buddy checkpoint-restart: every T
// iterations each node ships the recurrence's checkpoint set (standard PCG:
// the local parts of x, r, z, p) to its φ buddy nodes (chosen by the same
// Eq. 1 as the ASpMV designated destinations) and keeps a local copy for its
// own rollback. It is the one checkpoint store of every recurrence.
type imcrState struct {
	run     *nodeRun
	t       int
	blocks  [][]float64 // what a checkpoint holds, in payload order
	offset  int         // schedule phase (see recurrence.checkpoint)
	size    int         // payload length: the blocks' lengths summed
	buddies []int       // ranks I checkpoint to
	sources []int       // ranks that checkpoint to me (ascending)

	ownIter int // iteration of the local checkpoint; -1 none
	ownData []float64
	held    map[int][]float64 // source rank -> latest checkpoint payload
}

func newIMCRState(run *nodeRun) *imcrState {
	n := run.cfg.Nodes
	s := run.nd.Rank()
	st := &imcrState{run: run, t: run.cfg.T, ownIter: -1, held: make(map[int][]float64)}
	st.blocks, st.offset = run.rec.checkpoint()
	for _, blk := range st.blocks {
		st.size += len(blk)
	}
	for k := 1; k <= run.cfg.Phi; k++ {
		st.buddies = append(st.buddies, aspmv.Designated(s, k, n))
	}
	for u := 0; u < n; u++ {
		if u == s {
			continue
		}
		for k := 1; k <= run.cfg.Phi; k++ {
			if aspmv.Designated(u, k, n) == s {
				st.sources = append(st.sources, u)
				break
			}
		}
	}
	return st
}

func (st *imcrState) beforeSpMV(int) bool       { return false }
func (st *imcrState) retain(aspmv.ReceivedCopy) { panic("core: IMCR retains no ASpMV copies") }
func (st *imcrState) afterIteration(j int, _ float64) {
	if k := j + st.offset; k%st.t != 0 || k == 0 {
		return
	}
	// The blocks now hold the state at the start of iteration j+1, so that
	// is the iteration the checkpoint restores. The payload reuses the
	// previous checkpoint's backing array (Send copies it into a pooled
	// buffer before it leaves the node).
	payload := st.ownData[:0]
	if cap(payload) < st.size {
		payload = make([]float64, 0, st.size)
	}
	for _, blk := range st.blocks {
		payload = append(payload, blk...)
	}
	st.ownIter = j + 1
	st.ownData = payload
	st.ship()
}

// ship sends the local checkpoint to the buddies and takes in the sources'.
func (st *imcrState) ship() {
	run := st.run
	tCkpt := run.nd.Clock()
	for _, b := range st.buddies {
		run.nd.Send(b, tagCheckpoint, st.ownData)
	}
	for _, src := range st.sources {
		if old := st.held[src]; old != nil {
			run.nd.Release(old) // superseded checkpoint: recycle its buffer
		} else {
			// First round for this source: seed the free list with a second
			// same-shaped buffer. The steady-state exchange then always has
			// one buffer held here and one in the pool, so the source's
			// next-round send never races this node's same-window Release —
			// with a single circulating buffer that race would allocate on
			// every lost flip. The slack absorbs uneven partition sizes
			// (the source's m can differ from ours by the remainder).
			run.nd.Release(make([]float64, st.size+8))
		}
		st.held[src] = run.nd.Recv(src, tagCheckpoint)
	}
	run.tr.Span(obs.KindCheckpoint, tCkpt, run.nd.Clock())
}

// restore loads a checkpoint payload into the recurrence's blocks.
func (st *imcrState) restore(data []float64) {
	if len(data) != st.size {
		panic(fmt.Sprintf("core: checkpoint size %d, want %d", len(data), st.size))
	}
	for _, blk := range st.blocks {
		data = data[copy(blk, data):]
	}
}

func (st *imcrState) stateBytes() int64 {
	b := 8 * int64(len(st.ownData))
	for _, d := range st.held {
		b += 8 * int64(len(d))
	}
	return b
}

func (st *imcrState) lose() {
	st.ownIter = -1
	st.ownData = nil
	clear(st.held)
}

// ---------------------------------------------------------------------------
// Failure handling on nodeRun
// ---------------------------------------------------------------------------

// loseDynamicState simulates the node failure: all dynamic solver data held
// by this node is zeroed, exactly as in the paper's framework (Section 4).
// Static data (matrix, preconditioner, right-hand side, communication plan)
// is retained, standing in for the reload from safe storage whose cost the
// paper excludes from measurement.
func (run *nodeRun) loseDynamicState() {
	vec.Zero(run.x)
	vec.Zero(run.r)
	vec.Zero(run.z)
	vec.Zero(run.p)
	vec.Zero(run.q)
	vec.Zero(run.pg)
	run.bNormGlobal = 0
	run.rec.loseState()
	if run.res != nil {
		run.res.lose()
	}
}

func (run *nodeRun) amFailed(failed []int) bool {
	for _, r := range failed {
		if r == run.nd.Rank() {
			return true
		}
	}
	return false
}

// lowestSurvivor returns the smallest rank outside the contiguous failed
// block (guaranteed to exist: not all nodes may fail).
func (run *nodeRun) lowestSurvivor(failed []int) int {
	if failed[0] > 0 {
		return 0
	}
	return failed[len(failed)-1] + 1
}

func rankIsFailed(failed []int, s int) bool {
	return len(failed) > 0 && s >= failed[0] && s <= failed[len(failed)-1]
}

// handleFailure processes one timeline event on every node: it decides
// between the spare-pool recovery and the no-spare shrink fallback, runs the
// strategy's protocol, and records the event. It returns the iteration the
// solver resumes from and the recovery mode. All inputs to the decision
// (timeline, spare counter, cluster size) are replicated deterministically,
// so every node branches identically without communication.
func (run *nodeRun) handleFailure(j int, ev *FailureSpec) (int, string) {
	run.nextEvent++
	failed := ev.Ranks
	// Events outlive the cluster they were written against: after a shrink
	// the rank space is smaller, and an event whose block no longer exists
	// (or that would kill every remaining node) is dropped, visibly.
	if n := run.nd.Size(); failed[len(failed)-1] >= n || len(failed) >= n {
		run.logEvent(ev, failed, RecoverySkipped, j, j)
		return j, RecoverySkipped
	}
	// All spans until the restored scalars belong to this event's recovery
	// phase; the KindRecovery envelope recorded at the end encloses them
	// for the per-event breakdown.
	tEnv := run.nd.Clock()
	run.nd.Sched().EnvStart(j)
	run.tr.SetPhase(obs.PhaseRecovery)
	if dt := run.cfg.DetectionTime; dt > 0 {
		t0 := run.nd.Clock()
		run.nd.AddClock(dt) // failure detection + communicator repair
		run.tr.Span(obs.KindDetect, t0, run.nd.Clock())
	}
	var jrec int
	var mode string
	switch run.cfg.Strategy {
	case StrategyNone:
		jrec = run.localRestart(j, failed)
		mode = RecoveryRestart
	case StrategyESR, StrategyESRP:
		if run.sparesLeft >= 0 && run.sparesLeft < len(failed) {
			// Pool exhausted (or was empty from the start): no replacements
			// for this event, recover onto the survivors.
			jrec, mode = run.recoverNoSpare(j, failed)
		} else {
			if run.sparesLeft > 0 {
				run.sparesLeft -= len(failed)
			}
			jrec, mode = run.recoverESR(j, failed)
		}
	case StrategyIMCR:
		jrec, mode = run.recoverIMCR(j, failed)
	default:
		panic(fmt.Sprintf("core: no recovery for strategy %v", run.cfg.Strategy))
	}
	// The protocols measure their own elapsed time from after the detection
	// charge, so the detection cost is added on top here.
	run.recoveryTime += run.cfg.DetectionTime
	run.nd.Sched().RecCharge(run.cfg.DetectionTime)
	run.tr.Envelope(j, tEnv, run.nd.Clock())
	run.nd.Sched().EnvEnd()
	run.tr.SetPhase(obs.PhaseSteady)
	if !run.retired {
		run.logEvent(ev, failed, mode, jrec, j)
	}
	return jrec, mode
}

// logEvent appends one handled event to the node's replicated log.
func (run *nodeRun) logEvent(ev *FailureSpec, failed []int, mode string, jrec, j int) {
	run.eventLog = append(run.eventLog, RecoveryEvent{
		Iteration:   ev.Iteration,
		Ranks:       append([]int(nil), failed...),
		Mode:        mode,
		RecoveredAt: jrec,
		WastedIters: j - jrec,
		SparesLeft:  run.sparesLeft,
		ActiveNodes: run.nd.Size(),
	})
}

// localRestart is the no-redundancy fallback (and the StrategyNone
// behaviour): lost entries stay zeroed and the Krylov process restarts from
// the surviving iterand, discarding all built-up search-direction
// conjugacy. This is the expensive scenario motivating ESR.
func (run *nodeRun) localRestart(j int, failed []int) int {
	t0 := run.nd.Clock()
	run.nd.Sched().RecStart()
	if run.amFailed(failed) {
		run.loseDynamicState()
	}
	run.rec.agreeOnRestart(run.lowestSurvivor(failed))
	run.rec.restart()
	run.recEnd(t0)
	return j
}

// recEnd closes the recovery section a protocol opened at t0 (RecStart): the
// slowest section so far is the rank's recovery time.
func (run *nodeRun) recEnd(t0 float64) {
	run.recoveryTime = math.Max(run.recoveryTime, run.nd.Clock()-t0)
	run.nd.Sched().RecEnd()
}

// recoverESR implements the ESR/ESRP recovery: determine the reconstruction
// iteration, roll surviving nodes back to their starred copies, gather the
// redundant search directions and the iterand halo at the replacement
// nodes, and run the exact state reconstruction of Alg. 2. It returns the
// resume iteration and the recovery mode (RecoverySpare, or RecoveryRestart
// when there is nothing to reconstruct from).
func (run *nodeRun) recoverESR(j int, failed []int) (int, string) {
	st := run.res.(*esrState)
	flo, fhi := run.part.RangeOfParts(failed[0], failed[len(failed)-1]+1)
	amFailed := run.amFailed(failed)
	t0 := run.nd.Clock()
	run.nd.Sched().RecStart()

	if amFailed {
		run.loseDynamicState()
	} else {
		st.rollBack()
	}

	// The lowest surviving rank announces the reconstruction iteration and β*.
	root := run.lowestSurvivor(failed)
	var hdr [3]float64
	if run.nd.Rank() == root {
		hdr = st.header(j)
	}
	run.nd.Bcast(root, hdr[:])
	jrec, betaStar, recoverable := int(hdr[0]), hdr[1], hdr[2] != 0

	if !recoverable {
		// Failure before the first storage stage completed: nothing to
		// reconstruct from; survivors keep their current state and everyone
		// falls back to the local restart.
		run.rec.restart()
		run.recEnd(t0)
		return j, RecoveryRestart
	}

	// Gather the redundant copies p′^(jrec−1) and p′^(jrec) for the failed
	// index range at the replacement nodes. The set of surviving holders of
	// each failed node's entries is static: the plain and resilient-copy
	// receivers of that node's ASpMV traffic.
	run.recPrev = growF(run.recPrev, run.m)
	run.recCur = growF(run.recCur, run.m)
	run.recCovered = growI(run.recCovered, run.m) // bitmask: 1 = prev seen, 2 = cur seen
	pPrev, pCur, covered := run.recPrev, run.recCur, run.recCovered
	// Reconstruction scratch high-water mark: every node allocates the
	// gather buffers, but only the failed (reconstructing) nodes run the
	// inner solve and hold its working vectors.
	run.notePeak(8 * int64(3*run.m /* pPrev, pCur, covered */))
	if amFailed {
		run.notePeak(8 * int64(3*run.m+7*run.m /* w + inner PCG vectors */))
	}
	tGather := run.nd.Clock()
	for pass, tag := range []int{tagRecoverP0, tagRecoverP1} {
		iter := jrec - 1 + pass
		if !amFailed {
			c := st.queue.Get(iter)
			for _, fr := range failed {
				if !run.holdsEntriesOf(fr) {
					continue
				}
				var idx []int
				var val []float64
				if c != nil {
					idx, val = c.Lookup(run.part.Lo(fr), run.part.Hi(fr))
				}
				run.nd.SendFI(fr, tag, val, idx)
			}
		} else {
			dst := pPrev
			if pass == 1 {
				dst = pCur
			}
			for _, s := range run.survivingHoldersOf(run.nd.Rank(), failed) {
				val, idx := run.nd.RecvFI(s, tag)
				for k, gi := range idx {
					if gi >= run.lo && gi < run.hi {
						dst[gi-run.lo] = val[k]
						covered[gi-run.lo] |= 1 << pass
					}
				}
			}
		}
	}
	run.tr.Span(obs.KindRecoverGather, tGather, run.nd.Clock())
	if len(run.events) > 1 {
		// Multi-event timelines can leave the gathered copies incomplete: a
		// holder that itself failed earlier lost its queue, and the stage
		// whose copies we need may predate its recovery. The nodes vote on
		// coverage; on any gap the whole cluster degrades to a consistent
		// local restart instead of reconstructing from partial data.
		okLoc := 1.0
		if amFailed {
			for _, c := range covered {
				if c != 3 {
					okLoc = 0
					break
				}
			}
		}
		if run.nd.AllreduceScalar(cluster.OpMin, okLoc) == 0 {
			run.rec.restart()
			run.recEnd(t0)
			// ESRP survivors were already rolled back to the starred state
			// of iteration jrec before the vote, so resuming there keeps
			// the counter consistent with the state and the discarded work
			// [jrec, j) counted. ESR (t = 1) never rolled back: resume at j.
			if st.t > 1 {
				return jrec, RecoveryRestart
			}
			return j, RecoveryRestart
		}
	} else if amFailed {
		for i, c := range covered {
			if c != 3 {
				panic(fmt.Sprintf("core: entry %d of failed node %d not covered by redundant copies (mask %d)",
					run.lo+i, run.nd.Rank(), c))
			}
		}
	}

	// Halo of the surviving iterand x (Alg. 2 lines 2 and 7): survivors send
	// the entries the failed rows couple to; the failed node scatters them
	// into its compact ghost buffer (run.pg's ghost region — a scratch at
	// this point, refreshed by the next exchange anyway).
	me := run.nd.Rank()
	xg := run.pg[run.m:]
	tGather = run.nd.Clock()
	if !amFailed {
		for _, fr := range failed {
			for _, t := range run.plan.Recv[fr] {
				if t.Peer != me {
					continue
				}
				run.sendScratch = growF(run.sendScratch, len(t.Idx))
				buf := run.sendScratch
				for k, gi := range t.Idx {
					buf[k] = run.x[gi-run.lo]
				}
				run.nd.Send(fr, tagRecoverX, buf)
			}
		}
	} else {
		vec.Zero(xg)
		for ti, t := range run.plan.Recv[me] {
			if rankIsFailed(failed, t.Peer) {
				continue // unknowns of the inner system, not data
			}
			vals := run.nd.Recv(t.Peer, tagRecoverX)
			copy(xg[run.plan.RecvGhostOffset(me, ti):], vals)
		}
	}
	run.tr.Span(obs.KindRecoverGather, tGather, run.nd.Clock())

	// Exact state reconstruction on the replacement nodes (Alg. 2).
	if amFailed {
		// Line 4: z_If = p^(jrec)_If − β* p^(jrec−1)_If.
		for i := 0; i < run.m; i++ {
			run.z[i] = pCur[i] - betaStar*pPrev[i]
		}
		run.compute(obs.KindReconstruct, 2*float64(run.m))
		// Lines 5–6: v = z_If − P[If,I\If]·r (zero off-part for node-local
		// preconditioners), then solve P[If,If]·r_If = v.
		run.pc.SolveRestricted(run.r, run.z)
		run.compute(obs.KindReconstruct, run.pc.SolveRestrictedFlops())
		// Line 7: w = b_If − r_If − A[If,I\If]·x_(I\If), on the compact
		// local matrix: owned columns lie inside If by construction, ghost
		// columns owned by other failed ranks are inner-system unknowns —
		// both are skipped, leaving exactly the surviving coupling.
		run.recW = growF(run.recW, run.m)
		w := run.recW
		bLoc := run.cfg.B[run.lo:run.hi]
		for i := 0; i < run.m; i++ {
			cols, vals := run.local.Row(i)
			var s float64
			for k, c := range cols {
				if c < run.m {
					continue
				}
				if gi := run.local.Ghost[c-run.m]; gi >= flo && gi < fhi {
					continue
				}
				s += vals[k] * xg[c-run.m]
			}
			w[i] = bLoc[i] - run.r[i] - s
		}
		run.compute(obs.KindReconstruct, 2*run.nnzLocal)
		// Line 8: solve A[If,If]·x_If = w on the replacement nodes.
		run.innerSolve(failed, flo, fhi, w)
		copy(run.p, pCur)
	}

	st.resume(betaStar)
	run.recEnd(t0)
	return jrec, RecoverySpare
}

// holdsEntriesOf reports whether this (surviving) node statically receives
// redundant copies of entries owned by rank fr.
func (run *nodeRun) holdsEntriesOf(fr int) bool {
	me := run.nd.Rank()
	for _, t := range run.plan.Send[fr] {
		if t.Peer == me {
			return true
		}
	}
	for _, t := range run.plan.ExtraSend[fr] {
		if t.Peer == me {
			return true
		}
	}
	return false
}

// survivingHoldersOf returns, in ascending order, the surviving ranks that
// hold redundant copies of at least one entry owned by rank owner. This is
// the exact set of ranks whose holdsEntriesOf(owner) is true, so the gather
// protocol's sends and receives pair up one-to-one even when multiple failed
// nodes have different holder sets.
func (run *nodeRun) survivingHoldersOf(owner int, failed []int) []int {
	mark := make([]bool, run.nd.Size())
	for _, t := range run.plan.Send[owner] {
		mark[t.Peer] = true
	}
	for _, t := range run.plan.ExtraSend[owner] {
		mark[t.Peer] = true
	}
	var out []int
	for s, m := range mark {
		if m && !rankIsFailed(failed, s) {
			out = append(out, s)
		}
	}
	return out
}

// recoverIMCR implements the checkpoint-restart recovery: replacements
// retrieve the recurrence's checkpoint set from a surviving buddy, survivors
// roll back to their local checkpoint copy.
func (run *nodeRun) recoverIMCR(j int, failed []int) (int, string) {
	st := run.res.(*imcrState)
	n := run.nd.Size()
	amFailed := run.amFailed(failed)
	t0 := run.nd.Clock()
	run.nd.Sched().RecStart()

	if amFailed {
		run.loseDynamicState()
	}
	root := run.lowestSurvivor(failed)
	var hdr [2]float64
	if run.nd.Rank() == root && st.ownIter >= 0 {
		hdr = [2]float64{float64(st.ownIter), 1}
	}
	run.nd.Bcast(root, hdr[:])
	jrec, recoverable := int(hdr[0]), hdr[1] != 0
	if !recoverable {
		run.rec.restart()
		run.recEnd(t0)
		return j, RecoveryRestart
	}

	// For each failed node, its designated sender is the first surviving
	// buddy in Eq. 1 order — computable by every node without communication.
	tGather := run.nd.Clock()
	for _, fr := range failed {
		var sender = -1
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
			data, ok := st.held[fr]
			if !ok {
				panic(fmt.Sprintf("core: buddy %d holds no checkpoint of %d", me, fr))
			}
			run.nd.Send(fr, tagCkptRestore, data)
		} else if me == fr {
			data := run.nd.Recv(sender, tagCkptRestore)
			run.notePeak(8 * int64(len(data))) // restore payload in flight
			st.restore(data)
			st.ownIter = jrec
			st.ownData = append(st.ownData[:0], data...)
			run.nd.Release(data)
		}
	}
	if !amFailed {
		st.restore(st.ownData)
	}
	run.tr.Span(obs.KindRecoverGather, tGather, run.nd.Clock())
	if run.pendingEvents() {
		// More events may strike before the next checkpoint stage, and the
		// nodes that just failed hold no checkpoints of their sources any
		// more. Re-run the checkpoint exchange for the restored state so
		// every buddy relationship is whole again — otherwise a follow-up
		// failure whose surviving buddy is a just-recovered node would find
		// nothing to restore from.
		st.ship()
	}
	run.rec.restoreScalars()
	run.recEnd(t0)
	return jrec, RecoverySpare
}
