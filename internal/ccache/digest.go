package ccache

import (
	"bytes"
	"slices"
	"sync"
	"unsafe"

	"esrp/internal/sparse"
)

// Digest returns MatrixDigest(a, b), hashing each system once per handle.
// The handle keeps a private copy of every array it hashed and reuses a
// digest only while a and b hold exactly those bytes — floats compared as
// bit patterns, so −0 against +0 and a changed NaN payload both count as
// edits. An in-place edit therefore hashes again, and there is nothing to
// invalidate; an equal copy at another address reuses the digest. The
// copies are bounded by KeepDigests. Safe for concurrent use; distinct
// systems hash in parallel. On a nil handle it is MatrixDigest.
func (c *Cache) Digest(a *sparse.CSR, b []float64) [32]byte {
	if c == nil {
		return MatrixDigest(a, b)
	}
	m := &c.digests
	m.mu.Lock()
	known := m.systems
	m.mu.Unlock()
	for _, s := range known {
		if s.holds(a, b) {
			return s.digest
		}
	}
	// Hash the copy, not the caller's arrays: the digest is then of exactly
	// the bytes later calls are compared against.
	s := &hashedSystem{
		a: sparse.CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: slices.Clone(a.RowPtr), ColIdx: slices.Clone(a.ColIdx), Val: slices.Clone(a.Val)},
		b: slices.Clone(b),
	}
	s.digest = MatrixDigest(&s.a, s.b)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !slices.ContainsFunc(m.systems, func(t *hashedSystem) bool { return t.digest == s.digest }) {
		m.systems = append(m.systems, s)
	}
	return s.digest
}

// KeepDigests drops every remembered system whose digest is not in keep.
// A campaign run calls it with the digests of its own systems once its
// probe has them, so a handle holds exactly the systems the latest run
// asked for — the bound on the memo, with nothing to tune. A nil handle
// ignores it.
func (c *Cache) KeepDigests(keep [][32]byte) {
	if c == nil {
		return
	}
	m := &c.digests
	m.mu.Lock()
	defer m.mu.Unlock()
	drop := func(s *hashedSystem) bool { return !slices.Contains(keep, s.digest) }
	if slices.ContainsFunc(m.systems, drop) {
		// Digest scans snapshots of the slice: filter a copy, not in place.
		m.systems = slices.DeleteFunc(slices.Clone(m.systems), drop)
	}
}

// digestMemo is the systems a handle has digested and still remembers.
// Elements are only ever appended under mu; KeepDigests replaces the slice.
type digestMemo struct {
	mu      sync.Mutex
	systems []*hashedSystem
}

// hashedSystem is a private copy of one digested system and its digest,
// never written after it is made.
type hashedSystem struct {
	a      sparse.CSR
	b      []float64
	digest [32]byte
}

// holds reports whether a and b are byte for byte the system s copied.
func (s *hashedSystem) holds(a *sparse.CSR, b []float64) bool {
	return s.a.Rows == a.Rows && s.a.Cols == a.Cols &&
		bytes.Equal(raw(s.a.RowPtr), raw(a.RowPtr)) && bytes.Equal(raw(s.a.ColIdx), raw(a.ColIdx)) &&
		bytes.Equal(raw(s.a.Val), raw(a.Val)) && bytes.Equal(raw(s.b), raw(b))
}

// raw views a slice's backing memory as bytes, so one memory comparison
// tests floats by bit pattern, which == does not (−0 == +0, NaN != NaN).
func raw[T int | float64](s []T) []byte {
	var zero T
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(zero)))
}
