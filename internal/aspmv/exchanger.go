package aspmv

import (
	"sort"

	"esrp/internal/cluster"
)

// localView is the compact per-rank view of a plan: every transfer re-indexed
// into the node-local index space [0,m) owned ∪ [m,m+g) ghost, so the
// exchange operates on a ghost buffer of length g instead of a full-length
// vector. Views are static — computed once at plan setup and shared
// read-only by all exchanges.
type localView struct {
	ghost   []int // sorted global indices this rank receives for the product
	recvOff []int // per Recv transfer: start offset of its run within ghost

	sendIdx      [][]int // per Send transfer: owned-local indices (global − lo)
	extraSendIdx [][]int // per ExtraSend transfer: owned-local indices

	// sendContig/extraSendContig cache, per transfer, the start of its index
	// run when the indices are contiguous (-1 otherwise): those transfers —
	// whole-block ships under slab partitions — skip the per-entry gather.
	sendContig      []int
	extraSendContig []int

	// Augmented-exchange layout: the ReceivedCopy of one ASpMV always holds
	// the same (sorted) global indices, so the index slice and the position
	// of every incoming transfer element within it are precomputed. This is
	// what retires the per-iteration sortCopy and its allocation churn.
	copyIdx []int   // sorted global indices of the ReceivedCopy (plain + extra)
	copyPos [][]int // per Recv ⧺ ExtraRecv transfer: positions within copyIdx
	// copyContig caches, per transfer, the start of its position run when
	// the positions are contiguous (-1 otherwise): the scatter then becomes
	// one copy.
	copyContig []int
}

// buildViews (re)derives the per-rank local views. Called at the end of
// NewPlan and again by Augment to extend the copy layout.
func (p *Plan) buildViews() {
	n := p.Part.N
	p.views = make([]localView, n)
	for s := 0; s < n; s++ {
		v := &p.views[s]
		lo := p.Part.Lo(s)
		var extraSend, extraRecv []Transfer
		if p.ExtraSend != nil {
			extraSend = p.ExtraSend[s]
		}
		if p.ExtraRecv != nil {
			extraRecv = p.ExtraRecv[s]
		}
		for _, t := range p.Recv[s] {
			v.recvOff = append(v.recvOff, len(v.ghost))
			if len(v.ghost) > 0 && len(t.Idx) > 0 && t.Idx[0] <= v.ghost[len(v.ghost)-1] {
				panic("aspmv: Recv transfers are not globally sorted") // NewPlan invariant
			}
			v.ghost = append(v.ghost, t.Idx...)
		}
		v.sendIdx = make([][]int, len(p.Send[s]))
		v.sendContig = make([]int, len(p.Send[s]))
		for ti, t := range p.Send[s] {
			idx := make([]int, len(t.Idx))
			for k, gi := range t.Idx {
				idx[k] = gi - lo
			}
			v.sendIdx[ti] = idx
			v.sendContig[ti] = contiguousStart(idx)
		}
		v.extraSendIdx = make([][]int, len(extraSend))
		v.extraSendContig = make([]int, len(extraSend))
		for ti, t := range extraSend {
			idx := make([]int, len(t.Idx))
			for k, gi := range t.Idx {
				idx[k] = gi - lo
			}
			v.extraSendIdx[ti] = idx
			v.extraSendContig[ti] = contiguousStart(idx)
		}
		// Copy layout: plain ghost entries plus resilient copies, sorted.
		// The sets are disjoint (Augment never re-ships an entry the product
		// already delivers to the same node, and owners are unique).
		total := len(v.ghost)
		for _, t := range extraRecv {
			total += len(t.Idx)
		}
		v.copyIdx = make([]int, 0, total)
		v.copyIdx = append(v.copyIdx, v.ghost...)
		for _, t := range extraRecv {
			v.copyIdx = append(v.copyIdx, t.Idx...)
		}
		sort.Ints(v.copyIdx)
		v.copyPos = make([][]int, 0, len(p.Recv[s])+len(extraRecv))
		for _, transfers := range [][]Transfer{p.Recv[s], extraRecv} {
			for _, t := range transfers {
				pos := make([]int, len(t.Idx))
				// Transfer indices and the copy layout are both sorted, so
				// the positions fall out of one forward merge.
				cp := 0
				for k, gi := range t.Idx {
					for cp < len(v.copyIdx) && v.copyIdx[cp] < gi {
						cp++
					}
					pos[k] = cp
				}
				v.copyPos = append(v.copyPos, pos)
				v.copyContig = append(v.copyContig, contiguousStart(pos))
			}
		}
	}
}

// Ghost returns the sorted global indices of the ghost entries rank s
// receives for the plain product — the compact ghost index space the local
// matrix extraction (sparse.NewLocal) and the exchange halves share. The
// slice is plan-owned and read-only.
func (p *Plan) Ghost(s int) []int { return p.views[s].ghost }

// GhostLen returns the ghost-buffer length of rank s.
func (p *Plan) GhostLen(s int) int { return len(p.views[s].ghost) }

// Exchanger drives the halo exchange of one rank in Start/Finish halves over
// the compact local index space. Start posts all sends and receives; the
// caller then overlaps the interior-rows product with the in-flight halo and
// calls Finish (or FinishAugmented) to wait for and scatter the ghost
// values. All scratch is preallocated from the plan's static sizes, so a
// steady-state plain exchange performs no solver-side heap allocation.
//
// An Exchanger belongs to one simulated node's goroutine, like the
// cluster.Node it is used with. Create it after Augment when the plan is
// augmented, so the scratch covers the resilient-copy transfers too.
type Exchanger struct {
	p *Plan
	s int

	sendBuf []float64 // gather scratch, sized to the largest transfer
	reqs    []cluster.Request
	pool    [][]float64 // recycled ReceivedCopy value buffers

	inFlight  bool
	augmented bool
	haloBytes int64
}

// NewExchanger returns the exchange driver for rank s.
func (p *Plan) NewExchanger(s int) *Exchanger {
	v := &p.views[s]
	maxLen := 0
	for _, idx := range v.sendIdx {
		maxLen = max(maxLen, len(idx))
	}
	for _, idx := range v.extraSendIdx {
		maxLen = max(maxLen, len(idx))
	}
	nReqs := len(p.Recv[s])
	if p.ExtraRecv != nil {
		nReqs += len(p.ExtraRecv[s])
	}
	return &Exchanger{
		p: p, s: s,
		sendBuf: make([]float64, maxLen),
		reqs:    make([]cluster.Request, 0, nReqs),
	}
}

// GhostLen returns the rank's ghost-buffer length.
func (ex *Exchanger) GhostLen() int { return len(ex.p.views[ex.s].ghost) }

// HaloBytes returns the payload bytes this rank has sent through the
// exchanger (plain ghost entries plus resilient copies) — the measured halo
// traffic, as opposed to the planned volume of Plan.ExtraTraffic.
func (ex *Exchanger) HaloBytes() int64 { return ex.haloBytes }

// AddHaloBytes folds bytes carried over from a predecessor exchanger into
// the counter (used when a recovery re-plans onto a shrunken cluster).
func (ex *Exchanger) AddHaloBytes(n int64) { ex.haloBytes += n }

// postSends gathers and ships the owned entries of xOwn for one transfer
// list. xOwn is the node's owned block (length m). Contiguous index runs —
// the whole block, for slab partitions — skip the per-entry gather and ship
// straight out of xOwn (ISend copies the payload before returning).
func (ex *Exchanger) postSends(nd *cluster.Node, xOwn []float64, transfers []Transfer, idxs [][]int, contig []int, tag int) {
	for ti, t := range transfers {
		idx := idxs[ti]
		if c := contig[ti]; c >= 0 {
			seg := xOwn[c : c+len(idx)]
			nd.ISend(t.Peer, tag, seg)
			ex.haloBytes += int64(8 * len(seg))
			continue
		}
		buf := ex.sendBuf[:len(idx)]
		for k, i := range idx {
			buf[k] = xOwn[i]
		}
		nd.ISend(t.Peer, tag, buf)
		ex.haloBytes += int64(8 * len(buf))
	}
}

// contiguousStart returns the first element of idx when it is a contiguous
// ascending run (idx[k] = idx[0]+k), else -1.
func contiguousStart(idx []int) int {
	if len(idx) == 0 {
		return -1
	}
	for k, v := range idx {
		if v != idx[0]+k {
			return -1
		}
	}
	return idx[0]
}

// Start posts the plain halo exchange: sends of the owned entries consumers
// need, and nonblocking receives of this rank's ghost entries. The caller
// may compute on xOwn-independent data (interior rows) before Finish.
func (ex *Exchanger) Start(nd *cluster.Node, xOwn []float64) {
	if ex.inFlight {
		panic("aspmv: Start while an exchange is in flight")
	}
	v := &ex.p.views[ex.s]
	ex.postSends(nd, xOwn, ex.p.Send[ex.s], v.sendIdx, v.sendContig, TagHalo)
	ex.reqs = ex.reqs[:0]
	for _, t := range ex.p.Recv[ex.s] {
		ex.reqs = append(ex.reqs, nd.IRecv(t.Peer, TagHalo))
	}
	ex.inFlight, ex.augmented = true, false
}

// StartAugmented posts the ASpMV exchange: the plain halo traffic plus the
// resilient copies of the augmented plan.
func (ex *Exchanger) StartAugmented(nd *cluster.Node, xOwn []float64) {
	if ex.p.Phi < 1 {
		panic("aspmv: StartAugmented on a non-augmented plan")
	}
	if ex.inFlight {
		panic("aspmv: StartAugmented while an exchange is in flight")
	}
	v := &ex.p.views[ex.s]
	ex.postSends(nd, xOwn, ex.p.Send[ex.s], v.sendIdx, v.sendContig, TagHalo)
	ex.postSends(nd, xOwn, ex.p.ExtraSend[ex.s], v.extraSendIdx, v.extraSendContig, TagExtra)
	ex.reqs = ex.reqs[:0]
	for _, t := range ex.p.Recv[ex.s] {
		ex.reqs = append(ex.reqs, nd.IRecv(t.Peer, TagHalo))
	}
	for _, t := range ex.p.ExtraRecv[ex.s] {
		ex.reqs = append(ex.reqs, nd.IRecv(t.Peer, TagExtra))
	}
	ex.inFlight, ex.augmented = true, true
}

// Finish waits for the plain exchange and scatters the received values into
// the compact ghost buffer (length GhostLen).
func (ex *Exchanger) Finish(nd *cluster.Node, ghost []float64) {
	if !ex.inFlight || ex.augmented {
		panic("aspmv: Finish without a matching Start")
	}
	v := &ex.p.views[ex.s]
	for ti := range ex.reqs {
		vals := ex.reqs[ti].Wait()
		copy(ghost[v.recvOff[ti]:], vals)
		nd.Release(vals) // scattered: recycle the payload buffer
	}
	ex.inFlight = false
}

// FinishAugmented waits for the augmented exchange, scatters the plain ghost
// entries into the compact ghost buffer, and assembles the ReceivedCopy this
// rank must retain for iteration iter. The copy's index slice is the plan's
// static sorted layout (shared, read-only); the value buffer comes from the
// recycle pool when available, so steady-state ASpMV iterations reuse
// storage instead of growing the heap.
func (ex *Exchanger) FinishAugmented(nd *cluster.Node, ghost []float64, iter int) ReceivedCopy {
	if !ex.inFlight || !ex.augmented {
		panic("aspmv: FinishAugmented without a matching StartAugmented")
	}
	v := &ex.p.views[ex.s]
	val := ex.getValBuf(len(v.copyIdx))
	nPlain := len(ex.p.Recv[ex.s])
	for ti := range ex.reqs {
		vals := ex.reqs[ti].Wait()
		if ti < nPlain {
			copy(ghost[v.recvOff[ti]:], vals)
		}
		if c := v.copyContig[ti]; c >= 0 {
			copy(val[c:c+len(vals)], vals)
		} else {
			for k, pos := range v.copyPos[ti] {
				val[pos] = vals[k]
			}
		}
		nd.Release(vals) // scattered into ghost + val: recycle
	}
	ex.inFlight = false
	return ReceivedCopy{Iter: iter, Idx: v.copyIdx, Val: val}
}

// Recycle returns a ReceivedCopy value buffer (e.g. one evicted from the
// redundancy queue) to the pool for reuse by a later FinishAugmented.
func (ex *Exchanger) Recycle(val []float64) {
	if cap(ex.pool) == 0 {
		ex.pool = make([][]float64, 0, 4)
	}
	if len(ex.pool) < cap(ex.pool) {
		ex.pool = append(ex.pool, val)
	}
}

func (ex *Exchanger) getValBuf(n int) []float64 {
	for len(ex.pool) > 0 {
		buf := ex.pool[len(ex.pool)-1]
		ex.pool = ex.pool[:len(ex.pool)-1]
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]float64, n)
}
