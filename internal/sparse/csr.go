// Package sparse implements compressed sparse row (CSR) matrices and the
// structural operations the ESR/ESRP algorithms need: sequential SpMV,
// extraction of a contiguous window (A[If,If], copied straight from the
// sorted source rows), the compact per-rank Local view and its planned SpMV
// kernels, symmetry checks, bandwidth statistics, and Matrix Market I/O.
package sparse

import (
	"fmt"
	"math"
	"sort"
)

// CSR is a sparse matrix in compressed sparse row format.
type CSR struct {
	Rows, Cols int
	RowPtr     []int     // len Rows+1
	ColIdx     []int     // len nnz, column indices, sorted within each row
	Val        []float64 // len nnz
}

// NNZ returns the number of stored entries.
func (a *CSR) NNZ() int { return len(a.ColIdx) }

// Row returns the column indices and values of row i as sub-slices of the
// matrix storage (do not modify the index slice).
func (a *CSR) Row(i int) (cols []int, vals []float64) {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	return a.ColIdx[lo:hi], a.Val[lo:hi]
}

// At returns A(i,j), using binary search within row i.
func (a *CSR) At(i, j int) float64 {
	cols, vals := a.Row(i)
	k := sort.SearchInts(cols, j)
	if k < len(cols) && cols[k] == j {
		return vals[k]
	}
	return 0
}

// MulVec computes dst = A*x sequentially. dst must have length Rows and must
// not alias x.
func (a *CSR) MulVec(dst, x []float64) {
	for i := 0; i < a.Rows; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		var s float64
		for k := lo; k < hi; k++ {
			s += a.Val[k] * x[a.ColIdx[k]]
		}
		dst[i] = s
	}
}

// MulVecRows computes dst = (A x) restricted to rows [r0,r1): dst[i-r0] holds
// row i of the product. This is the local kernel of the distributed SpMV,
// where x is a full-length vector assembled from local plus received entries.
func (a *CSR) MulVecRows(dst, x []float64, r0, r1 int) {
	for i := r0; i < r1; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		var s float64
		for k := lo; k < hi; k++ {
			s += a.Val[k] * x[a.ColIdx[k]]
		}
		dst[i-r0] = s
	}
}

// IsSymmetric reports whether the matrix is structurally and numerically
// symmetric within absolute tolerance tol. Cost O(nnz log nnz-per-row).
func (a *CSR) IsSymmetric(tol float64) bool {
	if a.Rows != a.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			if math.Abs(vals[k]-a.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// Bandwidth returns the maximum |i-j| over stored entries.
func (a *CSR) Bandwidth() int {
	bw := 0
	for i := 0; i < a.Rows; i++ {
		cols, _ := a.Row(i)
		for _, j := range cols {
			if d := max(i-j, j-i); d > bw {
				bw = d
			}
		}
	}
	return bw
}

// SubRange extracts the submatrix A[r0:r1, c0:c1) as a CSR with local
// (shifted) indices. Used for A[If,If] when the failed index set If is a
// contiguous range, which it always is for contiguous-rank failures under a
// block row distribution.
//
// Source rows are sorted and duplicate-free (Validate's invariant), so each
// row's window is one contiguous run, found by binary search and copied in
// source order: two passes (count, fill), three allocations, O(rows·log
// row-length + entries kept).
func (a *CSR) SubRange(r0, r1, c0, c1 int) *CSR {
	rowPtr := make([]int, r1-r0+1)
	for i := r0; i < r1; i++ {
		cols, _ := a.Row(i)
		lo := sort.SearchInts(cols, c0)
		rowPtr[i-r0+1] = rowPtr[i-r0] + sort.SearchInts(cols[lo:], c1)
	}
	colIdx := make([]int, rowPtr[r1-r0])
	val := make([]float64, rowPtr[r1-r0])
	for i := r0; i < r1; i++ {
		cols, vals := a.Row(i)
		lo := sort.SearchInts(cols, c0)
		dst := rowPtr[i-r0]
		n := rowPtr[i-r0+1] - dst
		// 0 + v: a stored -0.0 comes out as +0.0, as it does from
		// Builder.Build (whose sums start at +0), so extraction and
		// assembly agree bit for bit.
		for k, j := range cols[lo : lo+n] {
			colIdx[dst+k] = j - c0
			val[dst+k] = 0 + vals[lo+k]
		}
	}
	return &CSR{Rows: r1 - r0, Cols: c1 - c0, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
}

// Dense materializes the matrix as row-major dense storage (testing helper;
// quadratic memory — small matrices only).
func (a *CSR) Dense() []float64 {
	d := make([]float64, a.Rows*a.Cols)
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			d[i*a.Cols+j] = vals[k]
		}
	}
	return d
}

// Validate checks structural invariants (monotone RowPtr, sorted unique
// column indices in range). It returns a descriptive error on violation.
func (a *CSR) Validate() error {
	if len(a.RowPtr) != a.Rows+1 {
		return fmt.Errorf("sparse: RowPtr has length %d, want %d", len(a.RowPtr), a.Rows+1)
	}
	if a.RowPtr[0] != 0 || a.RowPtr[a.Rows] != len(a.ColIdx) || len(a.ColIdx) != len(a.Val) {
		return fmt.Errorf("sparse: inconsistent storage lengths")
	}
	for i := 0; i < a.Rows; i++ {
		if a.RowPtr[i] > a.RowPtr[i+1] {
			return fmt.Errorf("sparse: RowPtr not monotone at row %d", i)
		}
		cols, _ := a.Row(i)
		for k, j := range cols {
			if j < 0 || j >= a.Cols {
				return fmt.Errorf("sparse: row %d has column %d out of range [0,%d)", i, j, a.Cols)
			}
			if k > 0 && cols[k-1] >= j {
				return fmt.Errorf("sparse: row %d columns not strictly increasing at position %d", i, k)
			}
		}
	}
	return nil
}

// Builder accumulates COO triplets and assembles a CSR matrix. Duplicate
// (i,j) entries are summed, which makes finite-element-style assembly of the
// generator stencils straightforward.
type Builder struct {
	rows, cols int
	i, j       []int
	v          []float64
}

// NewBuilder returns a Builder for an rows×cols matrix.
func NewBuilder(rows, cols int) *Builder {
	return &Builder{rows: rows, cols: cols}
}

// Add appends the triplet (i,j,v).
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("sparse: Add(%d,%d) out of %dx%d", i, j, b.rows, b.cols))
	}
	b.i = append(b.i, i)
	b.j = append(b.j, j)
	b.v = append(b.v, v)
}

// AddSym appends (i,j,v) and, if i != j, (j,i,v).
func (b *Builder) AddSym(i, j int, v float64) {
	b.Add(i, j, v)
	if i != j {
		b.Add(j, i, v)
	}
}

// Build assembles the CSR, sorting rows, merging duplicates, and dropping
// explicit zeros that result from exact cancellation.
func (b *Builder) Build() *CSR {
	// Counting sort by row.
	count := make([]int, b.rows+1)
	for _, i := range b.i {
		count[i+1]++
	}
	for i := 0; i < b.rows; i++ {
		count[i+1] += count[i]
	}
	perm := make([]int, len(b.i))
	next := make([]int, b.rows)
	for k, i := range b.i {
		perm[count[i]+next[i]] = k
		next[i]++
	}
	rowPtr := make([]int, b.rows+1)
	colIdx := make([]int, 0, len(b.i))
	val := make([]float64, 0, len(b.i))
	type ent struct {
		j int
		v float64
	}
	var scratch []ent
	for i := 0; i < b.rows; i++ {
		scratch = scratch[:0]
		for k := count[i]; k < count[i+1]; k++ {
			t := perm[k]
			scratch = append(scratch, ent{b.j[t], b.v[t]})
		}
		sort.Slice(scratch, func(x, y int) bool { return scratch[x].j < scratch[y].j })
		for k := 0; k < len(scratch); {
			j := scratch[k].j
			var s float64
			for k < len(scratch) && scratch[k].j == j {
				s += scratch[k].v
				k++
			}
			colIdx = append(colIdx, j)
			val = append(val, s)
		}
		rowPtr[i+1] = len(colIdx)
	}
	return &CSR{Rows: b.rows, Cols: b.cols, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
}

// FromDense builds a CSR from row-major dense storage, dropping entries with
// |v| <= drop.
func FromDense(rows, cols int, data []float64, drop float64) *CSR {
	b := NewBuilder(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if v := data[i*cols+j]; math.Abs(v) > drop {
				b.Add(i, j, v)
			}
		}
	}
	return b.Build()
}

// Identity returns the n×n identity matrix.
func Identity(n int) *CSR {
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.Add(i, i, 1)
	}
	return b.Build()
}
