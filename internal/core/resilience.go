package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"esrp/internal/aspmv"
	"esrp/internal/cluster"
	"esrp/internal/precond"
	"esrp/internal/replay"
	"esrp/internal/vec"
)

// Message tags of the recovery protocols (disjoint from aspmv's tag range).
const (
	tagRecoverP0   = 200 // redundant p entries for iteration jrec-1
	tagRecoverP1   = 201 // redundant p entries for iteration jrec
	tagRecoverX    = 202 // halo of the surviving iterand for Alg. 2 line 7
	tagCheckpoint  = 210 // IMCR checkpoint shipment
	tagCkptRestore = 211 // IMCR checkpoint retrieval after a failure
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
	st.queue.Reset(st.run.ex.Recycle)
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
// and ‖b‖ by one fused allreduce, the β bookkeeping from β* so that the
// resumed storage stage re-saves identical data.
func (st *esrState) resume(betaStar float64) {
	st.run.restoreScalars()
	st.run.betaPrev = betaStar
	st.betaPending = betaStar
}

// imcrState implements in-memory buddy checkpoint-restart: every T
// iterations each node ships its checkpoint set (the local parts of x, r, z,
// p) to its φ buddy nodes (chosen by the same Eq. 1 as the ASpMV designated
// destinations) and keeps a local copy for its own rollback.
type imcrState struct {
	run     *nodeRun
	t       int
	blocks  [][]float64 // what a checkpoint holds, in payload order
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
	st.blocks = run.checkpoint()
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
	if j%st.t != 0 || j == 0 {
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
	run.nd.Sched().Region(replay.RegionCheckpoint)
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
	run.nd.Sched().Region(replay.RegionHalo)
}

// restore loads a checkpoint payload into the checkpoint set's blocks.
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
	run.rz, run.betaPrev = 0, 0
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
	// Everything until the restored scalars belongs to this event's
	// recovery phase; its envelope encloses it for the per-event breakdown.
	run.nd.Sched().EnvStart(j)
	if dt := run.cfg.DetectionTime; dt > 0 {
		run.nd.AddClock(dt) // failure detection + communicator repair
	}
	var jrec int
	var mode string
	switch run.cfg.Strategy {
	case StrategyNone:
		jrec = run.localRestart(j, failed)
		mode = RecoveryRestart
	case StrategyESR, StrategyESRP:
		// An exhausted (or from the start empty) pool has no replacements
		// for this event: it recovers onto the survivors.
		shrink := run.sparesLeft >= 0 && run.sparesLeft < len(failed)
		if !shrink && run.sparesLeft > 0 {
			run.sparesLeft -= len(failed)
		}
		jrec, mode = run.recoverESR(j, failed, shrink)
	case StrategyIMCR:
		jrec, mode = run.recoverIMCR(j, failed)
	default:
		panic(fmt.Sprintf("core: no recovery for strategy %v", run.cfg.Strategy))
	}
	// The protocols measure their own elapsed time from after the detection
	// charge, so the detection cost is added on top here.
	run.recoveryTime += run.cfg.DetectionTime
	run.nd.Sched().RecCharge(run.cfg.DetectionTime)
	run.nd.Sched().EnvEnd()
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
	run.restart()
	run.recEnd(t0)
	return j
}

// recEnd closes the recovery section a protocol opened at t0 (RecStart): the
// slowest section so far is the rank's recovery time.
func (run *nodeRun) recEnd(t0 float64) {
	run.recoveryTime = math.Max(run.recoveryTime, run.nd.Clock()-t0)
	run.nd.Sched().RecEnd()
}

// esrEvent is one ESR/ESRP event as every participating rank sees it: the
// failed index range [flo, fhi), who rebuilds it and where the survivors
// agree on it. With spares the ψ replacement ranks each rebuild their own
// rows; in a shrink the failed ranks retire and one adopter rebuilds all of
// [flo, fhi).
type esrEvent struct {
	failed   []int
	flo, fhi int
	adopter  int                    // the shrink's one rebuilder; -1 with spares
	pc       precond.Preconditioner // run.pc, or at the adopter the failed nodes' blocks
	nd       *cluster.Node          // header and vote: run.nd, or the survivors' sub-communicator
}

// rebuilderOf returns the rank that rebuilds failed rank fr's rows.
func (ev *esrEvent) rebuilderOf(fr int) int {
	if ev.adopter >= 0 {
		return ev.adopter
	}
	return fr
}

// recoverESR implements the ESR/ESRP recovery for both pool states. With
// spares, replacement nodes take the failed ranks' places. Without (shrink:
// the spare-free variant of [Pachajoa, Pacher, Gansterer 2019], ref. 22 of
// the paper) the failed nodes lose their state and retire, and the survivor
// adjacent to the failed block adopts its rows, applying the failed nodes'
// own preconditioner blocks so the solver stays on the reference trajectory
// despite the repartitioning. Either way the survivors roll back to their
// starred copies, the lowest of them announces the reconstruction iteration
// and β*, and the rebuilders reconstruct the exact state (Alg. 2). It
// returns the resume iteration and the recovery mode: RecoverySpare
// (RecoveryRestart when there was nothing to reconstruct from), or
// RecoveryShrink — the cluster got smaller either way.
func (run *nodeRun) recoverESR(j int, failed []int, shrink bool) (int, string) {
	st := run.res.(*esrState)
	amFailed := run.amFailed(failed)
	if shrink && amFailed {
		run.loseDynamicState()
		run.retired = true
		return j, RecoveryShrink
	}
	t0 := run.nd.Clock()
	run.nd.Sched().RecStart()

	ev := esrEvent{failed: failed, adopter: -1, pc: run.pc, nd: run.nd}
	ev.flo, ev.fhi = run.part.RangeOfParts(failed[0], failed[len(failed)-1]+1)
	root := run.lowestSurvivor(failed)
	var survivors []int
	if shrink {
		n := run.nd.Size()
		survivors = make([]int, 0, n-len(failed))
		for s := 0; s < n; s++ {
			if !rankIsFailed(failed, s) {
				survivors = append(survivors, s)
			}
		}
		ev.nd, root = run.subOf(survivors), 0 // the lowest survivor's sub-rank
		ev.adopter = adopterRank(failed, n)
		if run.nd.Rank() == ev.adopter {
			// Static data, rebuilt once per event: the adopter applies the
			// failed nodes' blocks in the reconstruction and from then on.
			ev.pc = run.failedRangePC(failed)
		}
	}
	if amFailed {
		run.loseDynamicState()
	} else {
		st.rollBack()
	}

	// The lowest survivor announces the reconstruction iteration and β*.
	var hdr [3]float64
	if ev.nd.Rank() == root {
		hdr = st.header(j)
	}
	ev.nd.Bcast(root, hdr[:])
	jrec, betaStar, recoverable := int(hdr[0]), hdr[1], hdr[2] != 0
	var x, r, z, p []float64
	rebuilt := false
	if recoverable {
		x, r, z, p, rebuilt = run.reconstruct(&ev, jrec, betaStar)
	} else {
		jrec = j // no storage stage completed yet: nothing was rolled back
	}

	if shrink {
		run.shrinkTo(&ev, survivors, x, r, z, p, rebuilt, jrec, betaStar)
	} else if x != nil {
		copy(run.x, x)
		copy(run.p, p)
	}
	if rebuilt {
		st.resume(betaStar)
	} else {
		// Restart the Krylov process from the surviving iterand: where the
		// survivors stood, or — ESRP after a failed vote — the starred state
		// of jrec they rolled back to, the work since then counted as wasted
		// (ESR reconstructs iteration j itself and never rolls back).
		run.restart()
		if !shrink {
			// The copies and starred states belong to the process that just
			// ended; a later reconstruction from them would mix it with the
			// restarted one. Like a shrink that restarts, every rank drops
			// them and waits for the next storage stage.
			st.lose()
		}
	}
	run.recEnd(t0)
	switch {
	case shrink:
		return jrec, RecoveryShrink
	case rebuilt:
		return jrec, RecoverySpare
	}
	return jrec, RecoveryRestart
}

// reconstruct is Alg. 2 for one event once the header is known: the
// rebuilders gather p′^(jrec−1) and p′^(jrec) of their rows from the
// surviving holders, the survivors vote on coverage, the rebuilders gather
// the surviving iterand's halo and rebuild z, r, w and x exactly (lines 4–8).
// It returns the rebuilt x, r, z, p of this rank's share of [flo, fhi) — nil
// on ranks rebuilding nothing — and false when the copies were incomplete.
func (run *nodeRun) reconstruct(ev *esrEvent, jrec int, betaStar float64) (x, r, z, p []float64, ok bool) {
	st := run.res.(*esrState)
	me := run.nd.Rank()
	amFailed := run.amFailed(ev.failed)
	shrink := ev.adopter >= 0
	// This rank's share [rlo, rhi) of the failed range and the compact view
	// of those rows, whose ghost slots xg take the x halo: a replacement's
	// own rows and ghost buffer (run.pg's ghost region, a scratch until the
	// next exchange), or all of the failed rows at the adopter, their
	// surviving couplings as ghosts. Every other rank's share is empty.
	var rlo, rhi int
	local, xg := run.local, run.pg[run.m:]
	switch {
	case me == ev.adopter:
		rlo, rhi, local = ev.flo, ev.fhi, run.adoptedRows(ev.failed, ev.flo, ev.fhi)
		run.recX = growF(run.recX, local.G())
		xg = run.recX
	case amFailed:
		rlo, rhi = run.lo, run.hi
	}
	rm := rhi - rlo
	rebuilds := rm > 0

	// Scratch high-water marks. A rebuilder holds the gathered pair, its
	// coverage mask, w and the inner PCG's vectors; the adopter also holds
	// the rebuilt x, r, z, p beside its own until the shrink, and the x halo
	// with its ghost indices. A spare event charges every rank the gather
	// buffers.
	if !shrink {
		run.notePeak(8 * int64(3*run.m))
	}
	if rebuilds {
		extra := 8 * int64(10*rm)
		if shrink {
			extra += 8*int64(4*rm) + 16*int64(local.G())
		}
		run.notePeak(extra)
	}
	run.recPrev = growF(run.recPrev, rm)
	run.recCur = growF(run.recCur, rm)
	run.recCovered = growI(run.recCovered, rm) // bitmask: 1 = prev seen, 2 = cur seen
	pPrev, pCur, covered := run.recPrev, run.recCur, run.recCovered
	var holders [][]int
	if rebuilds {
		holders = run.holdersOf(ev)
	}

	// Each failed rank's entries go from their surviving holders to the rank
	// rebuilding its rows; the adopter files its own copies first.
	run.nd.Sched().Region(replay.RegionRecoverGather)
	for pass, tag := range [2]int{tagRecoverP0, tagRecoverP1} {
		c := st.queue.Get(jrec - 1 + pass)
		dst := pPrev
		if pass == 1 {
			dst = pCur
		}
		file := func(idx []int, val []float64) {
			for k, gi := range idx {
				if gi >= rlo && gi < rhi {
					dst[gi-rlo] = val[k]
					covered[gi-rlo] |= 1 << pass
				}
			}
		}
		for i, fr := range ev.failed {
			var idx []int
			var val []float64
			if c != nil {
				idx, val = c.Lookup(run.part.Lo(fr), run.part.Hi(fr))
			}
			switch reb := ev.rebuilderOf(fr); {
			case reb == me:
				file(idx, val)
				for _, s := range holders[i] {
					val, idx := run.nd.RecvFI(s, tag)
					file(idx, val)
				}
			case !amFailed && run.holds(me, fr):
				run.nd.SendFI(reb, tag, val, idx)
			}
		}
	}
	run.nd.Sched().Region(replay.RegionHalo)
	if len(run.events) > 1 {
		// Multi-event timelines can leave the gathered copies incomplete: a
		// holder that failed earlier lost its queue, and the stage whose
		// copies we need may predate its recovery, or the event is wider than
		// a shrunken cluster's redundancy. The nodes vote on coverage; on any
		// gap the event degrades to a consistent restart instead of
		// reconstructing from partial data.
		okLoc := 1.0
		if slices.ContainsFunc(covered, func(c int) bool { return c != 3 }) {
			okLoc = 0
		}
		if ev.nd.AllreduceScalar(cluster.OpMin, okLoc) == 0 {
			return nil, nil, nil, nil, false
		}
	} else {
		for i, c := range covered {
			if c != 3 {
				panic(fmt.Sprintf("core: entry %d of failed range [%d,%d) not covered by redundant copies (mask %d)",
					rlo+i, ev.flo, ev.fhi, c))
			}
		}
	}

	// Halo of the surviving iterand x (Alg. 2 lines 2 and 7): the owners of
	// the entries the failed rows couple to send them to the rows' rebuilder.
	run.nd.Sched().Region(replay.RegionRecoverGather)
	for _, fr := range ev.failed {
		reb := ev.rebuilderOf(fr)
		for _, t := range run.plan.Recv[fr] {
			switch {
			case rankIsFailed(ev.failed, t.Peer):
				// unknowns of the inner system, not data
			case t.Peer == me:
				run.sendScratch = growF(run.sendScratch, len(t.Idx))
				buf := run.sendScratch
				for k, gi := range t.Idx {
					buf[k] = run.x[gi-run.lo]
				}
				if reb == me {
					fileGhosts(xg, local.Ghost, t.Idx, buf)
				} else {
					run.nd.Send(reb, tagRecoverX, buf)
				}
			case reb == me:
				fileGhosts(xg, local.Ghost, t.Idx, run.nd.Recv(t.Peer, tagRecoverX))
			}
		}
	}
	run.nd.Sched().Region(replay.RegionHalo)
	if !rebuilds {
		return nil, nil, nil, nil, true
	}

	// Exact state reconstruction of this rank's share. A replacement
	// rebuilds z and r in place; the adopter keeps them beside its own
	// vectors until the shrink, z over p′^(jrec−1).
	z, r = run.z, run.r
	if shrink {
		run.recR = growF(run.recR, rm)
		z, r = pPrev, run.recR
	}
	// Line 4: z_If = p^(jrec)_If − β* p^(jrec−1)_If.
	for i := range z {
		z[i] = pCur[i] - betaStar*pPrev[i]
	}
	run.nd.Compute(replay.WorkReconstruct, 2*float64(rm))
	// Lines 5–6: v = z_If − P[If,I\If]·r (zero off-part for node-local
	// preconditioners), then solve P[If,If]·r_If = v.
	ev.pc.SolveRestricted(r, z)
	run.nd.Compute(replay.WorkReconstruct, ev.pc.SolveRestrictedFlops())
	// Line 7: w = b_If − r_If − A[If,I\If]·x_(I\If): owned columns lie inside
	// If by construction, ghost columns owned by other failed ranks are
	// inner-system unknowns — both are skipped, leaving exactly the
	// surviving coupling.
	run.recW = growF(run.recW, rm)
	w, b := run.recW, run.cfg.B[rlo:rhi]
	for i := range w {
		cols, vals := local.Row(i)
		var s float64
		for k, c := range cols {
			if c < rm {
				continue
			}
			if gi := local.Ghost[c-rm]; gi >= ev.flo && gi < ev.fhi {
				continue
			}
			s += vals[k] * xg[c-rm]
		}
		w[i] = b[i] - r[i] - s
	}
	run.nd.Compute(replay.WorkReconstruct, 2*float64(local.NNZ()))
	// Line 8: solve A[If,If]·x_If = w over the rebuilders.
	return run.innerSolve(ev, w), r, z, pCur, true
}

// holds reports whether rank s statically receives redundant copies of
// entries owned by rank owner: it is a plain or resilient-copy receiver of
// owner's ASpMV traffic.
func (run *nodeRun) holds(s, owner int) bool {
	for _, t := range run.plan.Send[owner] {
		if t.Peer == s {
			return true
		}
	}
	for _, t := range run.plan.ExtraSend[owner] {
		if t.Peer == s {
			return true
		}
	}
	return false
}

// holdersOf lists, for each failed rank whose rows this rank rebuilds, the
// other surviving ranks holding copies of its entries, ascending: exactly
// the ranks whose holds(me, fr) makes them send here, so the gather's sends
// and receives pair up one to one. The lists are built once per event into
// reused rows; the rows of failed ranks rebuilt elsewhere stay empty.
func (run *nodeRun) holdersOf(ev *esrEvent) [][]int {
	if len(run.recHolders) < len(ev.failed) {
		run.recHolders = make([][]int, len(ev.failed))
	}
	rows, n, me := run.recHolders[:len(ev.failed)], run.nd.Size(), run.nd.Rank()
	for i, fr := range ev.failed {
		if rows[i] = rows[i][:0]; ev.rebuilderOf(fr) != me {
			continue
		}
		rows[i] = slices.Grow(rows[i], n)
		for s := range n {
			if s != me && !rankIsFailed(ev.failed, s) && run.holds(s, fr) {
				rows[i] = append(rows[i], s)
			}
		}
	}
	return rows
}

// fileGhosts writes vals, the x entries at the sorted global indices idx, to
// their slots in xg, the buffer of the sorted ghost set ghost ⊇ idx.
func fileGhosts(xg []float64, ghost, idx []int, vals []float64) {
	g := sort.SearchInts(ghost, idx[0])
	for k, gi := range idx {
		for ghost[g] != gi {
			g++
		}
		xg[g] = vals[k]
	}
}

// recoverIMCR implements the checkpoint-restart recovery: replacements
// retrieve their checkpoint set from a surviving buddy, survivors roll back
// to their local checkpoint copy.
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
		run.restart()
		run.recEnd(t0)
		return j, RecoveryRestart
	}

	// For each failed node, its designated sender is the first surviving
	// buddy in Eq. 1 order — computable by every node without communication.
	run.nd.Sched().Region(replay.RegionRecoverGather)
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
	run.nd.Sched().Region(replay.RegionHalo)
	if run.pendingEvents() {
		// More events may strike before the next checkpoint stage, and the
		// nodes that just failed hold no checkpoints of their sources any
		// more. Re-run the checkpoint exchange for the restored state so
		// every buddy relationship is whole again — otherwise a follow-up
		// failure whose surviving buddy is a just-recovered node would find
		// nothing to restore from.
		st.ship()
	}
	run.restoreScalars()
	run.recEnd(t0)
	return jrec, RecoverySpare
}
