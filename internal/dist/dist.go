// Package dist implements the block row data distribution that the ASpMV
// redundancy mechanism (Section 2.2, Eq. 1 of the paper) and the whole
// solver stack are defined against: a partition of the global index range
// [0,M) into N contiguous, ordered parts, one per simulated node.
//
// Beyond the uniform split the paper uses, the package provides
// weight-balanced contiguous partitioning (NewBalancedWeightPartition — the
// paper's future-work question of SpMV-optimizing distributions), partition
// quality diagnostics (per-node load, imbalance factor, ghost-entry
// communication volume against a sparse matrix), and the shrink mapping a
// partition onto the surviving nodes after a permanent node loss
// (ShrinkAfterLoss, feeding the no-spare-node recovery of ref. 22).
//
// All resilience machinery in internal/core requires only what Partition
// guarantees: contiguous ownership and ordered parts.
package dist

import (
	"fmt"
	"sort"
	"strings"
)

// Partition is a division of the global index range [0,M) into N contiguous
// parts: part s owns [Lo(s), Hi(s)), parts are ordered and tile the range.
// Parts may be empty. The zero value is not a valid Partition; use one of
// the constructors.
type Partition struct {
	M int // global size (number of rows / vector entries)
	N int // number of parts (nodes)

	// offsets[s] is the first index of part s; offsets[N] == M.
	offsets []int
	// blockQ/blockR enable the O(1) Owner fast path for uniform block
	// partitions: the first blockR parts have blockQ+1 indices, the rest
	// blockQ. blockQ < 0 means "not uniform, binary-search Owner".
	blockQ, blockR int
}

// NewBlockPartition returns the uniform block row partition of m indices
// over n parts: the first m%n parts own ⌈m/n⌉ indices, the rest ⌊m/n⌋ —
// the paper's distribution. Panics if m < 0 or n < 1.
func NewBlockPartition(m, n int) *Partition {
	if m < 0 || n < 1 {
		panic(fmt.Sprintf("dist: invalid block partition %d over %d", m, n))
	}
	q, r := m/n, m%n
	offsets := make([]int, n+1)
	for s := 0; s < n; s++ {
		size := q
		if s < r {
			size++
		}
		offsets[s+1] = offsets[s] + size
	}
	return &Partition{M: m, N: n, offsets: offsets, blockQ: q, blockR: r}
}

// FromOffsets builds a partition from its offset vector: offsets[s] is the
// first index of part s, offsets[len-1] the global size. Validation is
// strict: offsets must start at 0, be monotone non-decreasing (empty parts
// are allowed), and hold at least two entries, so the parts exactly tile
// [0, offsets[len-1]).
func FromOffsets(offsets []int) (*Partition, error) {
	if len(offsets) < 2 {
		return nil, fmt.Errorf("dist: need at least 2 offsets (1 part), got %d", len(offsets))
	}
	if offsets[0] != 0 {
		return nil, fmt.Errorf("dist: offsets must start at 0, got %d", offsets[0])
	}
	for s := 1; s < len(offsets); s++ {
		if offsets[s] < offsets[s-1] {
			return nil, fmt.Errorf("dist: offsets must be monotone, offset %d is %d after %d",
				s, offsets[s], offsets[s-1])
		}
	}
	own := append([]int(nil), offsets...)
	p := &Partition{M: own[len(own)-1], N: len(own) - 1, offsets: own, blockQ: -1}
	p.detectUniform()
	return p, nil
}

// detectUniform enables the O(1) Owner fast path when the offsets happen to
// describe the uniform block layout of NewBlockPartition.
func (p *Partition) detectUniform() {
	q, r := p.M/p.N, p.M%p.N
	for s := 0; s < p.N; s++ {
		size := q
		if s < r {
			size++
		}
		if p.offsets[s+1]-p.offsets[s] != size {
			p.blockQ = -1
			return
		}
	}
	p.blockQ, p.blockR = q, r
}

// Lo returns the first global index owned by part s.
func (p *Partition) Lo(s int) int { return p.offsets[s] }

// Hi returns one past the last global index owned by part s.
func (p *Partition) Hi(s int) int { return p.offsets[s+1] }

// Size returns the number of indices part s owns.
func (p *Partition) Size(s int) int { return p.offsets[s+1] - p.offsets[s] }

// RangeOfParts returns the combined index range [Lo(a), Hi(b-1)) of the
// contiguous part block [a, b).
func (p *Partition) RangeOfParts(a, b int) (lo, hi int) {
	if a < 0 || b > p.N || a >= b {
		panic(fmt.Sprintf("dist: part range [%d,%d) invalid for %d parts", a, b, p.N))
	}
	return p.offsets[a], p.offsets[b]
}

// Owner returns the part that owns global index j: O(1) for uniform block
// partitions, binary search otherwise. Panics if j is outside [0,M).
func (p *Partition) Owner(j int) int {
	if j < 0 || j >= p.M {
		panic(fmt.Sprintf("dist: index %d outside [0,%d)", j, p.M))
	}
	if q := p.blockQ; q >= 0 {
		split := p.blockR * (q + 1)
		if j < split {
			return j / (q + 1)
		}
		return p.blockR + (j-split)/q
	}
	// First part whose end exceeds j; empty parts sort before it.
	return sort.SearchInts(p.offsets[1:], j+1)
}

// Offsets returns a copy of the partition's offset vector (length N+1).
func (p *Partition) Offsets() []int {
	return append([]int(nil), p.offsets...)
}

// Sizes returns the part sizes (length N).
func (p *Partition) Sizes() []int {
	sizes := make([]int, p.N)
	for s := range sizes {
		sizes[s] = p.Size(s)
	}
	return sizes
}

// Equal reports whether two partitions describe the identical distribution.
func (p *Partition) Equal(q *Partition) bool {
	if p == nil || q == nil {
		return p == q
	}
	if p.M != q.M || p.N != q.N {
		return false
	}
	for s := 0; s <= p.N; s++ {
		if p.offsets[s] != q.offsets[s] {
			return false
		}
	}
	return true
}

// String renders the partition compactly for test failures and
// diagnostics, eliding the interior offsets of large partitions.
func (p *Partition) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Partition{M:%d N:%d offsets:[", p.M, p.N)
	const maxShown = 17
	if len(p.offsets) <= maxShown {
		for s, o := range p.offsets {
			if s > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", o)
		}
	} else {
		for s := 0; s < maxShown/2; s++ {
			fmt.Fprintf(&b, "%d ", p.offsets[s])
		}
		fmt.Fprintf(&b, "… %d more …", len(p.offsets)-maxShown+1)
		for s := len(p.offsets) - maxShown/2; s < len(p.offsets); s++ {
			fmt.Fprintf(&b, " %d", p.offsets[s])
		}
	}
	b.WriteString("]}")
	return b.String()
}
