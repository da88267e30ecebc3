package core

import (
	"fmt"
	"slices"

	"esrp/internal/cluster"
	"esrp/internal/precond"
	"esrp/internal/sparse"
)

// The no-spare shrink's own machinery: recoverESR reconstructs the failed
// range at the adopter like any other ESR/ESRP event, then hands it to
// shrinkTo, which repartitions the solve onto the survivors.

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

// adoptedRows is the adopter's compact view of the failed rows [flo,fhi):
// its ghosts are exactly the columns outside the range those rows
// reference, all owned by survivors — the slots the x halo of Alg. 2 line 7
// fills. Static data, like the failed nodes' preconditioner blocks.
func (run *nodeRun) adoptedRows(failed []int, flo, fhi int) *sparse.Local {
	size := 0
	for _, fr := range failed {
		size += run.plan.GhostLen(fr)
	}
	ghost := make([]int, 0, size)
	for _, fr := range failed {
		for _, t := range run.plan.Recv[fr] {
			if !rankIsFailed(failed, t.Peer) {
				ghost = append(ghost, t.Idx...)
			}
		}
	}
	slices.Sort(ghost)
	local, err := sparse.NewLocal(run.cfg.A, flo, fhi, slices.Compact(ghost))
	if err != nil {
		panic(fmt.Sprintf("core: adopted rows: %v", err))
	}
	return local
}

// shrinkTo repartitions the solve onto the survivors: the event's adopter
// absorbs the failed block [flo,fhi) (reconstructed vectors xIf, rIf, zIf,
// pIf; nil when the event restarts instead, leaving zeros) and applies the
// failed nodes' blocks (ev.pc) to it from then on, every survivor switches to
// the sub-communicator ev.nd and the new plan, and the redundancy machinery
// is re-established for the shrunken cluster. rebuilt, replicated on every
// survivor, says whether the reconstruction ran.
func (run *nodeRun) shrinkTo(ev *esrEvent, survivors []int, xIf, rIf, zIf, pIf []float64, rebuilt bool, jrec int, betaStar float64) {
	sub, flo, fhi := ev.nd, ev.flo, ev.fhi
	run.phi = min(run.phi, len(survivors)-1)
	if run.phi < 1 {
		run.res = nil // single survivor: no peers to hold redundancy
	}
	// The shrunken partition and its plan are static data, derived once for
	// all survivors.
	sys := run.shrunkenSystem(survivors, flo, fhi, run.phi)
	newPart, newPlan := sys.part, sys.plan

	// Rebuild this node's local view.
	subRank := sub.Rank()
	newLo, newHi := newPart.Lo(subRank), newPart.Hi(subRank)
	newM := newHi - newLo
	if run.nd.Rank() == ev.adopter {
		// The adopter briefly holds both the old and the new vector sets.
		run.notePeak(8 * int64(5*newM))
		join := func(own, adopted []float64) []float64 {
			v := make([]float64, newM)
			copy(v[run.lo-newLo:], own)
			copy(v[flo-newLo:], adopted)
			return v
		}
		run.x, run.r, run.z, run.p = join(run.x, xIf), join(run.r, rIf), join(run.z, zIf), join(run.p, pIf)
		run.q = make([]float64, newM)

		parts := []precond.Preconditioner{run.pc, ev.pc}
		sizes := []int{run.hi - run.lo, fhi - flo}
		if flo < run.lo { // adopted block precedes the own range
			slices.Reverse(parts)
			slices.Reverse(sizes)
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
	run.kern = sparse.BuildKernel(local, run.cfg.kernel)
	sent := run.ex.HaloBytes()
	run.ex = *newPlan.NewExchanger(subRank)
	run.ex.AddHaloBytes(sent)
	run.pg = make([]float64, newM+local.G())

	// Re-anchor the redundancy machinery on the new layout: the queue held
	// copies routed by the old plan, which no longer matches the shrunken
	// holder sets, so it restarts empty; the starred duplicates become the
	// just-reconstructed state at jrec. A restart leaves nothing to roll back
	// to until the next storage stage.
	if st, ok := run.res.(*esrState); ok && st != nil {
		st.queue.Reset()
		st.xs = make([]float64, newM)
		st.rs = make([]float64, newM)
		st.zs = make([]float64, newM)
		st.ps = make([]float64, newM)
		st.starsIter, st.hasStars = -1, false
		if st.t > 1 && rebuilt {
			st.star(jrec, betaStar)
			st.betaPending = betaStar
		}
	}
}
