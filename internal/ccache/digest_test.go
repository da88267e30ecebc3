package ccache

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"weak"

	"esrp/internal/matgen"
	"esrp/internal/sparse"
)

// remembered is how many systems c's memo holds.
func remembered(c *Cache) int {
	c.digests.mu.Lock()
	defer c.digests.mu.Unlock()
	return len(c.digests.systems)
}

// The memo is exact: every in-place edit of a digested system, including
// the ones == cannot see (+0 → −0, one NaN payload for another), hashes
// again and agrees with MatrixDigest, while an equal copy at another
// address is served from the copy the handle already holds.
func TestDigestFollowsInPlaceEdits(t *testing.T) {
	c := openTestCache(t)
	a := matgen.Poisson2D(8, 8)
	b := matgen.RHSOnes(a.Rows)
	prev := MatrixDigest(a, b)
	if got := c.Digest(a, b); got != prev {
		t.Fatal("first Digest differs from MatrixDigest")
	}
	for _, edit := range []struct {
		name string
		do   func()
	}{
		{"RowPtr", func() { a.RowPtr[1]++ }},
		{"ColIdx", func() { a.ColIdx[0]++ }},
		{"Val", func() { a.Val[0] = 0 }},
		{"Val +0 → −0", func() { a.Val[0] = math.Copysign(0, -1) }},
		{"Val NaN", func() { a.Val[1] = math.Float64frombits(0x7ff8000000000001) }},
		{"Val NaN payload", func() { a.Val[1] = math.Float64frombits(0x7ff8000000000002) }},
		{"b", func() { b[len(b)-1]++ }},
	} {
		edit.do()
		want := MatrixDigest(a, b)
		if want == prev {
			t.Fatalf("%s: the edit does not change MatrixDigest", edit.name)
		}
		for range 2 {
			if got := c.Digest(a, b); got != want {
				t.Fatalf("%s: Digest %x, MatrixDigest %x", edit.name, got, want)
			}
		}
		prev = want
	}

	held := remembered(c)
	cp := &sparse.CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: slices.Clone(a.RowPtr), ColIdx: slices.Clone(a.ColIdx), Val: slices.Clone(a.Val)}
	if got := c.Digest(cp, slices.Clone(b)); got != prev {
		t.Fatalf("equal copy: Digest %x, want %x", got, prev)
	}
	if remembered(c) != held {
		t.Error("an equal copy at another address was hashed again")
	}
	if got := (*Cache)(nil).Digest(a, b); got != prev {
		t.Error("nil handle's Digest differs from MatrixDigest")
	}
}

// A nil b is the derived system b = A·1. Its digest is MatrixDigest over
// the product, bit for bit, on a handle and on a nil one, so an explicit b
// equal to A·1 addresses the same cells. The handle matches a derived
// system on A's bytes alone: an in-place edit of A hashes again, and
// alternating derived and explicit calls hash each system once, then hit.
func TestDigestOfDerivedRHS(t *testing.T) {
	c := openTestCache(t)
	a := matgen.Poisson2D(8, 8)
	timesOnes := func() []float64 {
		b := make([]float64, a.Rows)
		a.MulVec(b, matgen.RHSOnes(a.Cols))
		return b
	}
	b := timesOnes()
	want := MatrixDigest(a, b)
	if got := (*Cache)(nil).Digest(a, nil); got != want {
		t.Errorf("nil handle: Digest(a, nil) %x, MatrixDigest(a, A·1) %x", got, want)
	}
	if got := c.Digest(a, nil); got != want {
		t.Fatalf("Digest(a, nil) %x, MatrixDigest(a, A·1) %x", got, want)
	}
	if got := c.Digest(a, b); got != want {
		t.Fatalf("explicit b = A·1: Digest %x, want %x", got, want)
	}
	if n := remembered(c); n != 2 {
		t.Fatalf("memo holds %d systems after one derived and one explicit call, want 2", n)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		c.Digest(a, nil)
		c.Digest(a, b)
	}); allocs != 0 || remembered(c) != 2 {
		t.Errorf("alternating derived and explicit calls: %v allocations per pair, %d systems held; want 0 and 2 (no re-hash)", allocs, remembered(c))
	}

	a.Val[0] *= 2
	edited := MatrixDigest(a, timesOnes())
	if edited == want {
		t.Fatal("the edit does not change MatrixDigest(a, A·1)")
	}
	for range 2 {
		if got := c.Digest(a, nil); got != edited {
			t.Fatalf("after an in-place edit of A: Digest(a, nil) %x, want %x", got, edited)
		}
	}
	if got := c.Digest(a, b); got != MatrixDigest(a, b) || got == edited {
		t.Error("after the edit, the old explicit b does not address its own system")
	}
}

// KeepDigests bounds the memo to the systems named: a process that digests
// many matrices through one handle holds only the latest run's, and those
// still hit.
func TestDigestMemoKeepsOnlyTheNamedSystems(t *testing.T) {
	c := openTestCache(t)
	for n := 4; n < 24; n++ {
		a := matgen.Poisson2D(n, 4)
		c.Digest(a, matgen.RHSOnes(a.Rows))
	}
	kept := matgen.Poisson2D(5, 5)
	b := matgen.RHSOnes(kept.Rows)
	d := c.Digest(kept, b)
	c.KeepDigests([][32]byte{d})
	if n := remembered(c); n != 1 {
		t.Fatalf("memo holds %d systems after keeping one, want 1", n)
	}
	if c.Digest(kept, b) != d || remembered(c) != 1 {
		t.Error("the kept system was hashed again")
	}
	(*Cache)(nil).KeepDigests(nil)
}

// The memo pins nothing beyond its handle: handles that digested one
// long-lived matrix are collected once dropped, as a process that opens a
// fresh handle per sweep over the same systems needs.
func TestDigestDoesNotPinHandles(t *testing.T) {
	a := matgen.Poisson2D(8, 8)
	b := matgen.RHSOnes(a.Rows)
	var handles []weak.Pointer[Cache]
	for range 8 {
		c := openTestCache(t)
		c.Digest(a, b)
		handles = append(handles, weak.Make(c))
	}
	runtime.GC()
	for i, h := range handles {
		if h.Value() != nil {
			t.Errorf("handle %d outlived its last reference", i)
		}
	}
	runtime.KeepAlive(a)
	runtime.KeepAlive(b)
}
