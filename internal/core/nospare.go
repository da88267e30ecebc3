package core

import (
	"fmt"

	"esrp/internal/cluster"
	"esrp/internal/obs"
	"esrp/internal/precond"
	"esrp/internal/sparse"
)

// recoverNoSpare implements the spare-free ESR/ESRP recovery of [Pachajoa,
// Pacher, Gansterer 2019] (ref. 22 of the paper): failed nodes are not
// replaced. The surviving node adjacent to the contiguous failed rank block
// adopts the failed rows, the exact pre-failure state is reconstructed
// there from the redundant copies, and the solve continues on the shrunken
// cluster. The adopter applies the failed nodes' original preconditioner
// blocks (a precond.Composite), so the solver stays on the reference
// trajectory despite the repartitioning.
//
// Failed nodes lose their state and retire; the function returns the
// iteration the survivors resume from. The recovery mode is RecoveryShrink
// (the cluster got smaller either way, even when the reconstruction had to
// degrade to a restart of the surviving iterand).
func (run *nodeRun) recoverNoSpare(j int, failed []int) (int, string) {
	st := run.res.(*esrState)
	n := run.nd.Size()
	flo, fhi := run.part.RangeOfParts(failed[0], failed[len(failed)-1]+1)
	fsize := fhi - flo

	if run.amFailed(failed) {
		run.loseDynamicState()
		run.retired = true
		return j, RecoveryShrink
	}
	t0 := run.nd.Clock()
	run.nd.Sched().RecStart()

	survivors := make([]int, 0, n-len(failed))
	for s := 0; s < n; s++ {
		if !rankIsFailed(failed, s) {
			survivors = append(survivors, s)
		}
	}
	sub := run.subOf(survivors)
	adopter := adopterRank(failed, n)
	me := run.nd.Rank()
	// The adopter applies the failed nodes' preconditioner blocks, in the
	// reconstruction and from then on: static data, rebuilt once per event.
	var failedPC *precond.Composite
	if me == adopter {
		failedPC = run.failedRangePC(failed)
	}

	// Roll surviving nodes back to the last completed storage stage.
	st.rollBack()

	// The lowest surviving rank (sub rank 0) announces the reconstruction
	// iteration and β*.
	var hdr [3]float64
	if sub.Rank() == 0 {
		hdr = st.header(j)
	}
	sub.Bcast(0, hdr[:])
	jrec, betaStar, recoverable := int(hdr[0]), hdr[1], hdr[2] != 0

	if !recoverable {
		// Nothing to reconstruct from: repartition with the lost block
		// zeroed and restart the Krylov process from the surviving iterand.
		run.shrinkTo(sub, survivors, failedPC, flo, fhi, nil, nil, nil, nil, jrec, betaStar)
		run.rec.restart()
		run.recEnd(t0)
		return j, RecoveryShrink
	}

	// Gather the redundant copies p′^(jrec−1), p′^(jrec) of the failed
	// range at the adopter.
	var pPrev, pCur []float64
	covered := make([]int, fsize)
	if me == adopter {
		pPrev = make([]float64, fsize)
		pCur = make([]float64, fsize)
	}
	tGather := run.nd.Clock()
	for pass, tag := range []int{tagRecoverP0, tagRecoverP1} {
		iter := jrec - 1 + pass
		c := st.queue.Get(iter)
		dst := pPrev
		if pass == 1 {
			dst = pCur
		}
		for _, fr := range failed {
			if me != adopter && run.holdsEntriesOf(fr) {
				var idx []int
				var val []float64
				if c != nil {
					idx, val = c.Lookup(run.part.Lo(fr), run.part.Hi(fr))
				}
				run.nd.SendFI(adopter, tag, val, idx)
			}
		}
		if me == adopter {
			// Local copies first (the adopter may itself hold entries).
			if c != nil {
				idx, val := c.Lookup(flo, fhi)
				for k, gi := range idx {
					dst[gi-flo] = val[k]
					covered[gi-flo] |= 1 << pass
				}
			}
			for _, fr := range failed {
				for _, s := range run.survivingHoldersOf(fr, failed) {
					if s == adopter {
						continue
					}
					val, idx := run.nd.RecvFI(s, tag)
					for k, gi := range idx {
						dst[gi-flo] = val[k]
						covered[gi-flo] |= 1 << pass
					}
				}
			}
		}
	}
	run.tr.Span(obs.KindRecoverGather, tGather, run.nd.Clock())
	if len(run.events) > 1 {
		// Multi-event timelines can leave the gather incomplete (a holder
		// lost its queue to an earlier event, or the event width exceeds the
		// shrunken cluster's redundancy). The survivors vote; on any gap the
		// shrink proceeds with the failed block zeroed and a consistent
		// restart instead of reconstructing from partial data.
		okLoc := 1.0
		if me == adopter {
			for _, cvr := range covered {
				if cvr != 3 {
					okLoc = 0
					break
				}
			}
		}
		if sub.AllreduceScalar(cluster.OpMin, okLoc) == 0 {
			run.shrinkTo(sub, survivors, failedPC, flo, fhi, nil, nil, nil, nil, jrec, betaStar)
			run.rec.restart()
			run.recEnd(t0)
			// Mirror the recoverESR vote path: ESRP survivors already hold
			// the starred state of jrec, so resume there and count the
			// discarded work; ESR never rolled back.
			if st.t > 1 {
				return jrec, RecoveryShrink
			}
			return j, RecoveryShrink
		}
	} else if me == adopter {
		for i, cvr := range covered {
			if cvr != 3 {
				panic(fmt.Sprintf("core: entry %d of failed range not covered by redundant copies (mask %d)",
					flo+i, cvr))
			}
		}
	}

	// Halo of the surviving iterand x for Alg. 2 line 7, collected at the
	// adopter into a full-length buffer.
	tGather = run.nd.Clock()
	xHalo := run.gatherXHalo(failed, adopter)
	run.tr.Span(obs.KindRecoverGather, tGather, run.nd.Clock())

	// Exact state reconstruction of the failed range, local to the adopter.
	var rIf, zIf, xIf []float64
	if me == adopter {
		// Adopter scratch high-water mark: the gathered copies, the halo
		// map (~2 words per entry), the reconstruction vectors, and the
		// sequential inner solve's working set all live at once on top of
		// the steady state.
		run.notePeak(8*int64(3*fsize /* pPrev, pCur, covered */ +11*fsize /* rIf,zIf,w,xIf + inner PCG */) + 16*int64(len(xHalo)))
		zIf = make([]float64, fsize)
		for i := range zIf {
			zIf[i] = pCur[i] - betaStar*pPrev[i]
		}
		run.compute(obs.KindReconstruct, 2*float64(fsize))
		rIf = make([]float64, fsize)
		failedPC.SolveRestricted(rIf, zIf)
		run.compute(obs.KindReconstruct, failedPC.SolveRestrictedFlops())
		w := make([]float64, fsize)
		var nnzf float64
		for i := flo; i < fhi; i++ {
			cols, vals := run.cfg.A.Row(i)
			var s float64
			for k, c := range cols {
				if c < flo || c >= fhi {
					s += vals[k] * xHalo[c] // absent keys read as 0 = no coupling
				}
			}
			w[i-flo] = run.cfg.B[i] - rIf[i-flo] - s
			nnzf += float64(len(cols))
		}
		run.compute(obs.KindReconstruct, 2*nnzf)
		xIf = run.innerSolveLocal(failed, flo, fhi, w, failedPC)
	}

	// Repartition onto the survivors and continue.
	run.shrinkTo(sub, survivors, failedPC, flo, fhi, xIf, rIf, zIf, pCur, jrec, betaStar)
	st.resume(betaStar)
	run.recEnd(t0)
	return jrec, RecoveryShrink
}

// subOf derives the sub-communicator handle for the given current-view
// ranks, translating them to top-level ranks as cluster.Sub requires — the
// distinction matters from the second shrink on, when the current view no
// longer equals the top-level communicator.
func (run *nodeRun) subOf(viewRanks []int) *cluster.Node {
	g := make([]int, len(viewRanks))
	for i, r := range viewRanks {
		g[i] = run.nd.GlobalOf(r)
	}
	return run.nd.Sub(g)
}

// adopterRank returns the surviving rank that adopts the failed block: the
// first survivor after the block, or the last one before it when the block
// reaches the top rank.
func adopterRank(failed []int, n int) int {
	if failed[len(failed)-1] < n-1 {
		return failed[len(failed)-1] + 1
	}
	return failed[0] - 1
}

// gatherXHalo collects, at the adopter, the surviving iterand entries that
// the failed rows couple to, keyed by global index — O(halo) storage, not
// O(n); the adopter never materializes a full-length vector.
func (run *nodeRun) gatherXHalo(failed []int, adopter int) map[int]float64 {
	me := run.nd.Rank()
	var xHalo map[int]float64
	if me == adopter {
		size := 0
		for _, fr := range failed {
			for _, t := range run.plan.Recv[fr] {
				size += len(t.Idx)
			}
		}
		xHalo = make(map[int]float64, size)
	}
	for _, fr := range failed {
		for _, t := range run.plan.Recv[fr] {
			if rankIsFailed(failed, t.Peer) {
				continue // unknowns of the inner system, not data
			}
			switch {
			case t.Peer == me && me == adopter:
				for _, gi := range t.Idx {
					xHalo[gi] = run.x[gi-run.lo]
				}
			case t.Peer == me:
				run.sendScratch = growF(run.sendScratch, len(t.Idx))
				buf := run.sendScratch
				for k, gi := range t.Idx {
					buf[k] = run.x[gi-run.lo]
				}
				run.nd.Send(adopter, tagRecoverX, buf)
			case me == adopter:
				vals := run.nd.Recv(t.Peer, tagRecoverX)
				for k, gi := range t.Idx {
					xHalo[gi] = vals[k]
				}
			}
		}
	}
	return xHalo
}

// failedRangePC rebuilds the failed nodes' preconditioner segments (from
// static data) as one composite covering [flo,fhi) in rank order.
func (run *nodeRun) failedRangePC(failed []int) *precond.Composite {
	parts := make([]precond.Preconditioner, 0, len(failed))
	sizes := make([]int, 0, len(failed))
	for _, fr := range failed {
		lo, hi := run.part.Lo(fr), run.part.Hi(fr)
		pc, err := precond.Build(run.cfg.PrecondKind, run.cfg.A, lo, hi, run.cfg.MaxBlock)
		if err != nil {
			panic(fmt.Sprintf("core: rebuilding failed nodes' preconditioner: %v", err))
		}
		parts = append(parts, pc)
		sizes = append(sizes, hi-lo)
	}
	comp, err := precond.NewComposite(parts, sizes)
	if err != nil {
		panic(fmt.Sprintf("core: failed nodes' composite preconditioner: %v", err))
	}
	return comp
}

// innerSolveLocal solves A[If,If]·x = w sequentially on this node (the
// adopter), preconditioned with the failed nodes' own blocks.
func (run *nodeRun) innerSolveLocal(failed []int, flo, fhi int, w []float64, pc precond.Preconditioner) []float64 {
	solo := run.nd.Sub([]int{run.nd.GlobalRank()})
	x, _ := run.innerPCG(solo, run.innerSystem(setupInnerSeq, failed, flo, fhi), pc, w)
	return x
}

// shrinkTo repartitions the solve onto the survivors: the adopter — the one
// survivor handed failedPC, the failed block's preconditioner — absorbs the
// failed block (reconstructed vectors xIf, rIf, zIf, pIf; nil in the
// non-recoverable fallback, leaving zeros), every survivor switches to the
// sub-communicator and the new plan, and the redundancy machinery is
// re-established for the shrunken cluster.
func (run *nodeRun) shrinkTo(sub *cluster.Node, survivors []int, failedPC *precond.Composite, flo, fhi int,
	xIf, rIf, zIf, pIf []float64, jrec int, betaStar float64) {
	amAdopter := failedPC != nil

	phiNew := run.phi
	if max := len(survivors) - 1; phiNew > max {
		phiNew = max
	}
	run.phi = phiNew
	if phiNew < 1 {
		run.res = nil // single survivor: no peers to hold redundancy
	}
	// The shrunken partition and its plan are static data, derived once for
	// all survivors.
	sys := run.shrunkenSystem(survivors, flo, fhi, phiNew)
	newPart, newPlan := sys.part, sys.plan

	// Rebuild this node's local view.
	subRank := sub.Rank()
	newLo, newHi := newPart.Lo(subRank), newPart.Hi(subRank)
	newM := newHi - newLo
	if amAdopter {
		// The adopter briefly holds both the old and the new vector sets.
		run.notePeak(8 * int64(5*newM))
		x := make([]float64, newM)
		r := make([]float64, newM)
		z := make([]float64, newM)
		p := make([]float64, newM)
		place := func(dst, src []float64, gLo int) {
			if src != nil {
				copy(dst[gLo-newLo:], src)
			}
		}
		place(x, run.x, run.lo)
		place(r, run.r, run.lo)
		place(z, run.z, run.lo)
		place(p, run.p, run.lo)
		place(x, xIf, flo)
		place(r, rIf, flo)
		place(z, zIf, flo)
		place(p, pIf, flo)
		run.x, run.r, run.z, run.p = x, r, z, p
		run.q = make([]float64, newM)

		ownPC := run.pc
		var parts []precond.Preconditioner
		var sizes []int
		if flo < run.lo { // adopted block precedes the own range
			parts = []precond.Preconditioner{failedPC, ownPC}
			sizes = []int{fhi - flo, run.hi - run.lo}
		} else {
			parts = []precond.Preconditioner{ownPC, failedPC}
			sizes = []int{run.hi - run.lo, fhi - flo}
		}
		comp, err := precond.NewComposite(parts, sizes)
		if err != nil {
			panic(fmt.Sprintf("core: no-spare composite: %v", err))
		}
		run.pc = comp
	}
	run.nd = sub
	run.part = newPart
	run.plan = newPlan
	run.lo, run.hi, run.m = newLo, newHi, newM

	// Re-extract the compact local view for the shrunken plan: every
	// survivor's ghost set changed, not just the adopter's. The halo-byte
	// counter carries over so Result.HaloBytes stays a whole-solve figure.
	local, err := sparse.NewLocal(run.cfg.A, newLo, newHi, newPlan.Ghost(subRank))
	if err != nil {
		panic(fmt.Sprintf("core: no-spare local matrix: %v", err))
	}
	run.local = local
	run.kern = sparse.BuildKernel(local, run.cfg.Kernel)
	run.nnzLocal = float64(local.NNZ())
	sent := run.ex.HaloBytes()
	run.ex = newPlan.NewExchanger(subRank)
	run.ex.AddHaloBytes(sent)
	run.pg = make([]float64, newM+local.G())

	// Re-anchor the redundancy machinery on the new layout: the queue held
	// copies routed by the old plan, which no longer matches the shrunken
	// holder sets, so it restarts empty; the starred duplicates become the
	// just-reconstructed state at jrec.
	if st, ok := run.res.(*esrState); ok && st != nil {
		st.queue.Reset()
		st.xs = make([]float64, newM)
		st.rs = make([]float64, newM)
		st.zs = make([]float64, newM)
		st.ps = make([]float64, newM)
		if st.t > 1 {
			st.star(jrec, betaStar)
			st.betaPending = betaStar
		}
	}
}
