package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// subRangeViaBuilder is the extraction SubRange replaced: every kept entry
// pushed through the COO builder. It stays here as the differential
// reference — the direct copy must reproduce its output bit for bit.
func subRangeViaBuilder(a *CSR, r0, r1, c0, c1 int) *CSR {
	nb := NewBuilder(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			if j >= c0 && j < c1 {
				nb.Add(i-r0, j-c0, vals[k])
			}
		}
	}
	return nb.Build()
}

func requireSameCSR(t *testing.T, got, want *CSR) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("dims %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	if len(got.RowPtr) != len(want.RowPtr) || len(got.ColIdx) != len(want.ColIdx) || len(got.Val) != len(want.Val) {
		t.Fatalf("storage lengths %d/%d/%d, want %d/%d/%d",
			len(got.RowPtr), len(got.ColIdx), len(got.Val), len(want.RowPtr), len(want.ColIdx), len(want.Val))
	}
	for i := range want.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			t.Fatalf("RowPtr[%d] = %d, want %d", i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for k := range want.ColIdx {
		if got.ColIdx[k] != want.ColIdx[k] {
			t.Fatalf("ColIdx[%d] = %d, want %d", k, got.ColIdx[k], want.ColIdx[k])
		}
		if g, w := math.Float64bits(got.Val[k]), math.Float64bits(want.Val[k]); g != w {
			t.Fatalf("Val[%d] bits %#x (%g), want %#x (%g)", k, g, got.Val[k], w, want.Val[k])
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestSubRangeMatchesBuilderReference: the direct extraction against the
// builder-based one on random matrices, over windows that cut rows in the
// middle, empty windows, the full range, rectangular windows and rows that
// are empty inside the window — with explicitly stored zeros and a stored
// −0.0 in the source (Builder keeps a lone −0.0 out: its sums start at +0,
// so the source entries are patched in after Build).
func TestSubRangeMatchesBuilderReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 60; trial++ {
		rows, cols := 1+rng.Intn(30), 1+rng.Intn(30)
		a := randomCSR(rng, rows, cols, []float64{0.05, 0.3, 0.9}[trial%3])
		for k := range a.Val {
			if rng.Intn(6) == 0 {
				a.Val[k] = 0 // explicitly stored zero
			}
		}
		if len(a.Val) > 0 {
			a.Val[rng.Intn(len(a.Val))] = math.Copysign(0, -1)
		}
		if trial%5 == 0 && rows > 2 {
			// Rows with no entry at all, and therefore none in any window.
			r := 1 + rng.Intn(rows-2)
			lo, hi := a.RowPtr[r], a.RowPtr[r+1]
			a.ColIdx = append(a.ColIdx[:lo], a.ColIdx[hi:]...)
			a.Val = append(a.Val[:lo], a.Val[hi:]...)
			for i := r + 1; i <= rows; i++ {
				a.RowPtr[i] -= hi - lo
			}
		}
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}

		windows := [][4]int{
			{0, rows, 0, cols},              // the full range
			{0, rows, cols / 3, cols},       // rectangular, cuts every row
			{rows / 2, rows / 2, 0, cols},   // r0 == r1
			{0, rows, cols / 2, cols / 2},   // c0 == c1
			{rows / 4, rows, 0, cols / 2},   // rectangular, rows cut on the right
			{0, rows, cols - 1, cols},       // one column: most rows empty inside
			{rows - 1, rows, 0, 1 + cols/4}, // one row
		}
		for k := 0; k < 6; k++ {
			r0, c0 := rng.Intn(rows+1), rng.Intn(cols+1)
			windows = append(windows, [4]int{r0, r0 + rng.Intn(rows-r0+1), c0, c0 + rng.Intn(cols-c0+1)})
		}
		for _, w := range windows {
			t.Run(fmt.Sprintf("trial%d/%v", trial, w), func(t *testing.T) {
				requireSameCSR(t, a.SubRange(w[0], w[1], w[2], w[3]), subRangeViaBuilder(a, w[0], w[1], w[2], w[3]))
			})
		}
	}
}

// bandedCSR returns an n×n matrix with about perRow entries per row inside
// a band of half-width 3·perRow — the shape of the lost diagonal block the
// reconstruction extracts.
func bandedCSR(rng *rand.Rand, n, perRow int) *CSR {
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, float64(perRow))
		for k := 1; k < perRow; k++ {
			if j := i + rng.Intn(6*perRow+1) - 3*perRow; j >= 0 && j < n {
				b.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return b.Build()
}

// TestSubRangeAllocations: row pointers, column indices, values and the CSR
// header — four allocations however large the window is.
func TestSubRangeAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, n := range []int{120, 1200} {
		a := bandedCSR(rng, n, 12)
		lo, hi := n/4, 3*n/4
		if got := testing.AllocsPerRun(10, func() { a.SubRange(lo, hi, lo, hi) }); got > 4 {
			t.Errorf("n = %d: SubRange allocates %v times, want ≤ 4", n, got)
		}
	}
}

// BenchmarkSubRange extracts a three-rank diagonal block at the
// recovery-storm shape (3 000 rows on 8 ranks, ≈ 70 entries per row).
func BenchmarkSubRange(b *testing.B) {
	a := bandedCSR(rand.New(rand.NewSource(17)), 3000, 70)
	lo, hi := 375, 1500
	b.ReportAllocs()
	var kept int
	for b.Loop() {
		kept = a.SubRange(lo, hi, lo, hi).NNZ()
	}
	b.ReportMetric(float64(kept), "nnz")
}
