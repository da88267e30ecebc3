// Package dense implements small dense symmetric linear algebra: storage,
// Cholesky factorization, and triangular solves.
//
// The block Jacobi preconditioner (internal/precond) factors one small dense
// SPD block (≤ ~10×10) per partition block, and the ESR reconstruction phase
// (internal/core) solves small local systems directly when an iterative inner
// solve is not warranted. Matrices are stored row-major in a flat slice.
package dense

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense n×n matrix stored row-major.
type Matrix struct {
	N    int
	Data []float64 // len N*N, Data[i*N+j] = A(i,j)
}

// New returns a zero n×n matrix.
func New(n int) *Matrix {
	if n < 0 {
		panic("dense: negative dimension")
	}
	return &Matrix{N: n, Data: make([]float64, n*n)}
}

// FromRows builds a matrix from row slices (each of length n).
func FromRows(rows [][]float64) *Matrix {
	n := len(rows)
	m := New(n)
	for i, r := range rows {
		if len(r) != n {
			panic(fmt.Sprintf("dense: row %d has length %d, want %d", i, len(r), n))
		}
		copy(m.Data[i*n:(i+1)*n], r)
	}
	return m
}

// At returns A(i,j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.N+j] }

// Set assigns A(i,j) = v.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.N+j] = v }

// MulVec computes dst = A*x. dst must not alias x.
func (m *Matrix) MulVec(dst, x []float64) {
	n := m.N
	for i := 0; i < n; i++ {
		row := m.Data[i*n : (i+1)*n]
		var s float64
		for j, a := range row {
			s += a * x[j]
		}
		dst[i] = s
	}
}

// ErrNotSPD is returned by Cholesky when a non-positive pivot is encountered,
// meaning the input matrix is not (numerically) symmetric positive definite.
var ErrNotSPD = errors.New("dense: matrix is not positive definite")

// Cholesky holds the lower-triangular Cholesky factor L with A = L·Lᵀ.
type Cholesky struct {
	N int
	L []float64 // row-major lower triangle (full N×N storage, upper part zero)

	// ut is Lᵀ stored row-major (upper triangle), so the backward
	// substitution of Solve walks memory contiguously instead of striding
	// down a column of L. Same values, same operation order — Solve results
	// are bitwise unchanged; this is purely a memory-layout optimization for
	// the block-Jacobi hot path.
	ut []float64
}

// Factor computes the Cholesky factorization of the symmetric positive
// definite matrix a. Only the lower triangle of a is referenced.
func Factor(a *Matrix) (*Cholesky, error) {
	n := a.N
	l := make([]float64, n*n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			d -= l[j*n+k] * l[j*n+k]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w (pivot %d = %g)", ErrNotSPD, j, d)
		}
		ljj := math.Sqrt(d)
		l[j*n+j] = ljj
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l[i*n+k] * l[j*n+k]
			}
			l[i*n+j] = s / ljj
		}
	}
	ut := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for k := i; k < n; k++ {
			ut[i*n+k] = l[k*n+i]
		}
	}
	return &Cholesky{N: n, L: l, ut: ut}, nil
}

// Solve computes x = A⁻¹ b in place: b is overwritten with the solution.
func (c *Cholesky) Solve(b []float64) {
	n := c.N
	if len(b) != n {
		panic(fmt.Sprintf("dense: Cholesky.Solve dimension mismatch: %d vs %d", len(b), n))
	}
	// Forward substitution: L y = b.
	for i := 0; i < n; i++ {
		s := b[i]
		bi := b[:i]
		for k, lik := range c.L[i*n : i*n+i] {
			s -= lik * bi[k]
		}
		b[i] = s / c.L[i*n+i]
	}
	// Backward substitution: Lᵀ x = y, reading the transposed copy so the
	// inner loop is contiguous. Identical operand values in identical order.
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		bs := b[i+1 : n]
		for k, u := range c.ut[i*n+i+1 : i*n+n] {
			s -= u * bs[k]
		}
		b[i] = s / c.ut[i*n+i]
	}
}

// SolveInto computes dst = A⁻¹ src without modifying src. dst and src may
// alias (then it behaves like Solve).
func (c *Cholesky) SolveInto(dst, src []float64) {
	if &dst[0] != &src[0] {
		copy(dst, src)
	}
	c.Solve(dst)
}

// MulVec computes dst = A*x = L·(Lᵀ x), reconstituting the original operator
// from the factorization — the reference for BlockCholesky.MulVec, which the
// ESR reconstruction (Alg. 2 line 6) uses: solving P[If,If]·r = v where P is
// the block Jacobi *inverse* operator is a multiplication by the original
// blocks.
func (c *Cholesky) MulVec(dst, x []float64) {
	n := c.N
	// t = Lᵀ x
	t := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		for k := i; k < n; k++ {
			s += c.L[k*n+i] * x[k]
		}
		t[i] = s
	}
	// dst = L t
	for i := 0; i < n; i++ {
		var s float64
		for k := 0; k <= i; k++ {
			s += c.L[i*n+k] * t[k]
		}
		dst[i] = s
	}
}

// Det returns the determinant of the factored matrix (∏ L(i,i)²).
func (c *Cholesky) Det() float64 {
	d := 1.0
	for i := 0; i < c.N; i++ {
		d *= c.L[i*c.N+i] * c.L[i*c.N+i]
	}
	return d
}
