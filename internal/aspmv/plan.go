// Package aspmv implements the distributed sparse matrix–vector product and
// its augmented variant (ASpMV, Section 2.2 of the paper), which is the
// redundancy mechanism underlying ESR and ESRP.
//
// A Plan captures the static communication pattern of y = A·x under a block
// row distribution: the index sets I_{s,l} of vector entries node s must
// send to node l. Augmenting the plan for a redundancy target φ adds, per
// node s and designated destination d_{s,k} (Eq. 1), the resilient-copy sets
// Rc_{s,k} of entries shipped purely for redundancy, such that after every
// ASpMV each entry of the input vector resides on at least φ+1 distinct
// nodes (owner included) and therefore survives any simultaneous failure of
// up to φ nodes.
package aspmv

import (
	"fmt"
	"sort"

	"esrp/internal/cluster"
	"esrp/internal/dist"
	"esrp/internal/sparse"
)

// Transfer is one point-to-point leg of the exchange: the global indices of
// the vector entries to move between a fixed pair of nodes.
type Transfer struct {
	Peer int   // the other node's rank
	Idx  []int // sorted global indices
}

// Plan is the static communication schedule of the distributed SpMV for one
// matrix and partition. Plans are computed once at setup; the paper excludes
// setup from the measured runtimes and so does the paper constellation.
type Plan struct {
	Part *dist.Partition
	Phi  int // redundancy target; 0 = plain SpMV plan

	// Send[s] lists, in ascending peer order, the entries node s sends for
	// the plain product (I_{s,l} for every l with nonzero coupling).
	Send [][]Transfer
	// Recv[s] mirrors Send: entries node s receives for the plain product.
	Recv [][]Transfer

	// ExtraSend[s] lists the resilient copies node s ships to its designated
	// destinations beyond the plain product (Rc_{s,k}); empty if Phi == 0.
	ExtraSend [][]Transfer
	// ExtraRecv mirrors ExtraSend.
	ExtraRecv [][]Transfer

	// views[s] is rank s's compact local view (ghost index maps, per-transfer
	// offsets, static ReceivedCopy layout); see exchanger.go.
	views []localView
}

// Designated returns d_{s,k}, the k-th designated destination node (1-based
// k) for resilient copies of node s's entries, per Eq. 1 of the paper: the
// φ nearest neighbours, alternating right and left.
func Designated(s, k, n int) int {
	var d int
	if k%2 == 1 {
		d = s + (k+1)/2
	} else {
		d = s - k/2
	}
	return ((d % n) + n) % n
}

// NewPlan computes the plain SpMV communication schedule for matrix a under
// partition part. Requirements: a square, part.M == a.Rows.
func NewPlan(a *sparse.CSR, part *dist.Partition) (*Plan, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("aspmv: matrix must be square, got %dx%d", a.Rows, a.Cols)
	}
	if part.M != a.Rows {
		return nil, fmt.Errorf("aspmv: partition size %d != matrix size %d", part.M, a.Rows)
	}
	n := part.N
	p := &Plan{
		Part: part,
		Send: make([][]Transfer, n),
		Recv: make([][]Transfer, n),
	}
	needed := make([]bool, a.Rows)
	var touched []int
	for s := 0; s < n; s++ {
		lo, hi := part.Lo(s), part.Hi(s)
		touched = touched[:0]
		for i := lo; i < hi; i++ {
			cols, _ := a.Row(i)
			for _, j := range cols {
				if (j < lo || j >= hi) && !needed[j] {
					needed[j] = true
					touched = append(touched, j)
				}
			}
		}
		sort.Ints(touched)
		// Split the sorted ghost indices into per-owner runs.
		for b := 0; b < len(touched); {
			owner := part.Owner(touched[b])
			e := b
			ohi := part.Hi(owner)
			for e < len(touched) && touched[e] < ohi {
				e++
			}
			idx := append([]int(nil), touched[b:e]...)
			p.Recv[s] = append(p.Recv[s], Transfer{Peer: owner, Idx: idx})
			b = e
		}
		for _, j := range touched {
			needed[j] = false
		}
	}
	// Mirror receives into sends, in ascending destination order.
	for s := 0; s < n; s++ {
		for _, t := range p.Recv[s] {
			p.Send[t.Peer] = append(p.Send[t.Peer], Transfer{Peer: s, Idx: t.Idx})
		}
	}
	for s := 0; s < n; s++ {
		sort.Slice(p.Send[s], func(i, j int) bool { return p.Send[s][i].Peer < p.Send[s][j].Peer })
	}
	p.buildViews()
	return p, nil
}

// Augment extends the plan with resilient-copy transfers for redundancy
// target phi ≥ 1 (phi simultaneous node failures survivable). It implements
// the traversal of Section 2.2.1: for k = 1..φ, node s ships entry i ∈ I_s
// to d_{s,k} iff the entry is not already being sent there for the product
// and the running count of non-owner holders is still below φ.
func (p *Plan) Augment(phi int) error {
	n := p.Part.N
	if phi < 1 {
		return fmt.Errorf("aspmv: redundancy target must be ≥ 1, got %d", phi)
	}
	if phi > n-1 {
		return fmt.Errorf("aspmv: redundancy target %d needs at least %d nodes, have %d", phi, phi+1, n)
	}
	// Designated destinations must be distinct for the invariant to hold.
	for s := 0; s < n; s++ {
		seen := map[int]bool{s: true}
		for k := 1; k <= phi; k++ {
			d := Designated(s, k, n)
			if seen[d] {
				return fmt.Errorf("aspmv: designated destinations of node %d collide (n=%d, phi=%d)", s, n, phi)
			}
			seen[d] = true
		}
	}
	p.Phi = phi
	p.ExtraSend = make([][]Transfer, n)
	p.ExtraRecv = make([][]Transfer, n)
	for s := 0; s < n; s++ {
		lo, hi := p.Part.Lo(s), p.Part.Hi(s)
		m := hi - lo
		// holders[i-lo] = number of non-owner nodes that receive entry i in
		// the plain product (the paper's multiplicity m(i)).
		holders := make([]int, m)
		// sentTo[d] marks, for the current k-loop, which entries already go
		// to destination d (either for the product or as an earlier extra).
		sentTo := make(map[int]map[int]bool, phi+len(p.Send[s]))
		for _, t := range p.Send[s] {
			set := make(map[int]bool, len(t.Idx))
			for _, i := range t.Idx {
				set[i] = true
				holders[i-lo]++
			}
			sentTo[t.Peer] = set
		}
		for k := 1; k <= phi; k++ {
			d := Designated(s, k, n)
			already := sentTo[d]
			var extra []int
			for i := lo; i < hi; i++ {
				if already != nil && already[i] {
					continue
				}
				if holders[i-lo] >= phi {
					continue
				}
				extra = append(extra, i)
				holders[i-lo]++
			}
			if len(extra) == 0 {
				continue
			}
			if already == nil {
				already = make(map[int]bool, len(extra))
				sentTo[d] = already
			}
			for _, i := range extra {
				already[i] = true
			}
			p.ExtraSend[s] = append(p.ExtraSend[s], Transfer{Peer: d, Idx: extra})
		}
		sort.Slice(p.ExtraSend[s], func(i, j int) bool {
			return p.ExtraSend[s][i].Peer < p.ExtraSend[s][j].Peer
		})
	}
	for s := 0; s < n; s++ {
		for _, t := range p.ExtraSend[s] {
			p.ExtraRecv[t.Peer] = append(p.ExtraRecv[t.Peer], Transfer{Peer: s, Idx: t.Idx})
		}
	}
	for s := 0; s < n; s++ {
		sort.Slice(p.ExtraRecv[s], func(i, j int) bool {
			return p.ExtraRecv[s][i].Peer < p.ExtraRecv[s][j].Peer
		})
	}
	p.buildViews()
	return nil
}

// AugmentNaive extends the plan like Augment but without the paper's
// multiplicity counting (Section 2.2.1): node s ships its entire block to
// every designated destination d_{s,k} except the entries the product
// already delivers there. This is the obvious-but-wasteful baseline the
// Rc_{s,k} optimization is measured against (the redundancy invariant holds
// trivially); see BenchmarkAblationAugmentNaive.
func (p *Plan) AugmentNaive(phi int) error {
	n := p.Part.N
	if phi < 1 {
		return fmt.Errorf("aspmv: redundancy target must be ≥ 1, got %d", phi)
	}
	if phi > n-1 {
		return fmt.Errorf("aspmv: redundancy target %d needs at least %d nodes, have %d", phi, phi+1, n)
	}
	p.Phi = phi
	p.ExtraSend = make([][]Transfer, n)
	p.ExtraRecv = make([][]Transfer, n)
	for s := 0; s < n; s++ {
		lo, hi := p.Part.Lo(s), p.Part.Hi(s)
		already := make(map[int]map[int]bool, len(p.Send[s]))
		for _, t := range p.Send[s] {
			set := make(map[int]bool, len(t.Idx))
			for _, i := range t.Idx {
				set[i] = true
			}
			already[t.Peer] = set
		}
		for k := 1; k <= phi; k++ {
			d := Designated(s, k, n)
			var extra []int
			for i := lo; i < hi; i++ {
				if already[d] != nil && already[d][i] {
					continue
				}
				extra = append(extra, i)
			}
			if len(extra) > 0 {
				p.ExtraSend[s] = append(p.ExtraSend[s], Transfer{Peer: d, Idx: extra})
			}
		}
		sort.Slice(p.ExtraSend[s], func(i, j int) bool {
			return p.ExtraSend[s][i].Peer < p.ExtraSend[s][j].Peer
		})
	}
	for s := 0; s < n; s++ {
		for _, t := range p.ExtraSend[s] {
			p.ExtraRecv[t.Peer] = append(p.ExtraRecv[t.Peer], Transfer{Peer: s, Idx: t.Idx})
		}
	}
	for s := 0; s < n; s++ {
		sort.Slice(p.ExtraRecv[s], func(i, j int) bool {
			return p.ExtraRecv[s][i].Peer < p.ExtraRecv[s][j].Peer
		})
	}
	p.buildViews()
	return nil
}

// Holders returns, for every global index, the set of node ranks that hold a
// copy of the corresponding input-vector entry after one ASpMV: the owner
// plus every plain-product or resilient-copy receiver. Used by tests to
// check the φ+1 invariant and by the recovery phase to locate survivors.
func (p *Plan) Holders() [][]int {
	h := make([][]int, p.Part.M)
	for s := 0; s < p.Part.N; s++ {
		for i := p.Part.Lo(s); i < p.Part.Hi(s); i++ {
			h[i] = append(h[i], s)
		}
		for _, t := range p.Send[s] {
			for _, i := range t.Idx {
				h[i] = append(h[i], t.Peer)
			}
		}
		if p.ExtraSend != nil {
			for _, t := range p.ExtraSend[s] {
				for _, i := range t.Idx {
					h[i] = append(h[i], t.Peer)
				}
			}
		}
	}
	for i := range h {
		sort.Ints(h[i])
	}
	return h
}

// VerifyRedundancy checks that every entry has at least phi+1 distinct
// holders, returning a descriptive error for the first violation.
func (p *Plan) VerifyRedundancy(phi int) error {
	for i, hs := range p.Holders() {
		distinct := 0
		prev := -1
		for _, s := range hs {
			if s != prev {
				distinct++
				prev = s
			}
		}
		if distinct < phi+1 {
			return fmt.Errorf("aspmv: entry %d has %d holders, need %d", i, distinct, phi+1)
		}
	}
	return nil
}

// ExtraTraffic returns the total number of resilient-copy vector entries
// shipped per ASpMV (the pure redundancy overhead), and the number shipped
// for the plain product, for reporting.
func (p *Plan) ExtraTraffic() (extra, regular int) {
	for s := range p.Send {
		for _, t := range p.Send[s] {
			regular += len(t.Idx)
		}
	}
	for s := range p.ExtraSend {
		for _, t := range p.ExtraSend[s] {
			extra += len(t.Idx)
		}
	}
	return extra, regular
}

// Message tags used by the exchanges. The solver reserves tag ranges so that
// plan traffic never collides with recovery traffic.
const (
	TagHalo  = 100 // plain-product ghost entries
	TagExtra = 101 // resilient copies
)

// Exchange performs the plain SpMV halo exchange for node nd (view rank =
// partition part index): local entries of x are sent to consumers and ghost
// entries received into x (a full-length buffer). Returns nothing; x is
// ready for CSR.MulVecRows afterwards.
func (p *Plan) Exchange(nd *cluster.Node, x []float64) {
	s := nd.Rank()
	for _, t := range p.Send[s] {
		buf := gatherEntries(x, t.Idx)
		nd.Send(t.Peer, TagHalo, buf)
	}
	for _, t := range p.Recv[s] {
		vals := nd.Recv(t.Peer, TagHalo)
		scatterEntries(x, t.Idx, vals)
	}
}

// ReceivedCopy is the redundant information one node retains from one ASpMV:
// every input-vector entry it received (plain ghost entries and resilient
// copies alike), keyed by sorted global index. It is one queue slot's worth
// of one node's share of the distributed redundant copy p′ of the paper.
//
// Idx is the plan's static per-rank layout, shared by every copy the rank
// assembles — treat it as read-only. Only Val is per-iteration data.
type ReceivedCopy struct {
	Iter int // solver iteration the copy belongs to
	Idx  []int
	Val  []float64
}

// Lookup returns the values of the entries of the copy with global indices
// in [lo,hi), along with their indices. Binary search on the sorted index
// slice.
func (c *ReceivedCopy) Lookup(lo, hi int) (idx []int, val []float64) {
	b := sort.SearchInts(c.Idx, lo)
	e := sort.SearchInts(c.Idx, hi)
	return c.Idx[b:e], c.Val[b:e]
}

// ExchangeAugmented performs the ASpMV exchange on a full-length vector: the
// plain halo traffic plus the resilient copies. It returns the ReceivedCopy
// this node must retain (push into its redundancy queue) for iteration iter.
// The copy's Idx is the plan's precomputed sorted layout and its Val buffer
// is allocated with exact capacity — no per-iteration sorting or growth.
// The compact-buffer equivalent is Exchanger.StartAugmented/FinishAugmented.
func (p *Plan) ExchangeAugmented(nd *cluster.Node, x []float64, iter int) ReceivedCopy {
	if p.Phi < 1 {
		panic("aspmv: ExchangeAugmented on a non-augmented plan")
	}
	s := nd.Rank()
	for _, t := range p.Send[s] {
		nd.Send(t.Peer, TagHalo, gatherEntries(x, t.Idx))
	}
	for _, t := range p.ExtraSend[s] {
		nd.Send(t.Peer, TagExtra, gatherEntries(x, t.Idx))
	}
	v := &p.views[s]
	rc := ReceivedCopy{Iter: iter, Idx: v.copyIdx, Val: make([]float64, len(v.copyIdx))}
	for ti, t := range p.Recv[s] {
		vals := nd.Recv(t.Peer, TagHalo)
		scatterEntries(x, t.Idx, vals)
		for k, pos := range v.copyPos[ti] {
			rc.Val[pos] = vals[k]
		}
	}
	nPlain := len(p.Recv[s])
	for ti, t := range p.ExtraRecv[s] {
		vals := nd.Recv(t.Peer, TagExtra)
		for k, pos := range v.copyPos[nPlain+ti] {
			rc.Val[pos] = vals[k]
		}
	}
	return rc
}

func gatherEntries(x []float64, idx []int) []float64 {
	buf := make([]float64, len(idx))
	for k, i := range idx {
		buf[k] = x[i]
	}
	return buf
}

func scatterEntries(x []float64, idx []int, vals []float64) {
	if len(idx) != len(vals) {
		panic(fmt.Sprintf("aspmv: transfer length mismatch: %d indices, %d values", len(idx), len(vals)))
	}
	for k, i := range idx {
		x[i] = vals[k]
	}
}
