package dense

import (
	"fmt"
	"math"
)

// BlockCholesky is a batch of small Cholesky factors in one flat arena: the
// lower triangles (and their transposes, for the contiguous backward pass)
// of many independent SPD blocks packed back to back, row-major, without the
// zero half that full N×N storage carries. The block Jacobi preconditioner
// holds its many ≤10×10 diagonal blocks this way: one backsolve sweep then
// streams a few contiguous kilobytes instead of chasing per-block heap
// pointers, which is worth integer percents of the whole solve at stencil
// block counts.
//
// Factorization and the triangular solves perform the exact same operations
// in the exact same order as Factor/Cholesky.Solve on each block, so results
// are bitwise identical to the per-block path.
type BlockCholesky struct {
	dims []int // block sizes
	ptr  []int // arena offset of each block's packed triangle (len nblocks+1)
	l    []float64
	ut   []float64
}

// NumBlocks returns the number of appended blocks.
func (bc *BlockCholesky) NumBlocks() int { return len(bc.dims) }

// Append factors the SPD matrix a and packs the factor into the arena as the
// next block. On a non-positive pivot the arena is left unchanged and
// ErrNotSPD is wrapped in the returned error.
func (bc *BlockCholesky) Append(a *Matrix) error {
	n := a.N
	base := len(bc.l)
	if len(bc.ptr) == 0 {
		bc.ptr = append(bc.ptr, 0)
	}
	bc.l = append(bc.l, make([]float64, n*(n+1)/2)...)
	l := bc.l[base:]
	// Packed row-major lower triangle: row i starts at i(i+1)/2 and holds
	// i+1 entries. The update loops below are Factor's, re-indexed.
	rp := func(i int) int { return i * (i + 1) / 2 }
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		lj := l[rp(j) : rp(j)+j]
		for _, v := range lj {
			d -= v * v
		}
		if !(d > 0) {
			bc.l = bc.l[:base]
			return fmt.Errorf("%w (pivot %d = %g)", ErrNotSPD, j, d)
		}
		ljj := math.Sqrt(d)
		l[rp(j)+j] = ljj
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			li := l[rp(i) : rp(i)+j]
			for k, v := range lj {
				s -= li[k] * v
			}
			l[rp(i)+j] = s / ljj
		}
	}
	// Transposed copy (packed upper triangle, row-major): row i holds
	// L[i..n)[i], so the backward substitution streams contiguously.
	ubase := len(bc.ut)
	bc.ut = append(bc.ut, make([]float64, n*(n+1)/2)...)
	ut := bc.ut[ubase:]
	up := 0
	for i := 0; i < n; i++ {
		for k := i; k < n; k++ {
			ut[up] = l[rp(k)+i]
			up++
		}
	}
	bc.dims = append(bc.dims, n)
	bc.ptr = append(bc.ptr, len(bc.l))
	return nil
}

// Solve overwrites v (length Dim(b)) with A_b⁻¹ v: forward substitution on
// the packed lower triangle, backward on the packed transpose — operand for
// operand the same arithmetic as Cholesky.Solve.
func (bc *BlockCholesky) Solve(b int, v []float64) {
	n := bc.dims[b]
	l := bc.l[bc.ptr[b]:bc.ptr[b+1]]
	// Forward: L y = v. Row i of the packed triangle starts at i(i+1)/2.
	rp := 0
	for i := 0; i < n; i++ {
		s := v[i]
		row := l[rp : rp+i]
		vi := v[:i]
		for k, lik := range row {
			s -= lik * vi[k]
		}
		v[i] = s / l[rp+i]
		rp += i + 1
	}
	// Backward: Lᵀ x = y, streaming the packed transpose. Row i of ut holds
	// L[i,i], L[i+1,i], …, L[n-1,i]; it ends at the arena position where row
	// i+1 of l would start counting from the top, so walk it backwards.
	ut := bc.ut[bc.ptr[b]:bc.ptr[b+1]]
	up := len(ut)
	for i := n - 1; i >= 0; i-- {
		w := n - i // entries in ut row i
		up -= w
		row := ut[up+1 : up+w]
		s := v[i]
		vs := v[i+1 : n]
		for k, u := range row {
			s -= u * vs[k]
		}
		v[i] = s / ut[up]
	}
}

// SolvePair runs Solve on two independent blocks with their rows
// interleaved. A lone triangular solve is bound by its serial
// division/dot-product chain (row i needs row i-1's quotient); two blocks
// have no data dependencies, so interleaving their rows lets the CPU overlap
// one block's division latency with the other's multiply-adds. Each block's
// own operations run in the exact order Solve uses, so results are bitwise
// identical to two Solve calls.
func (bc *BlockCholesky) SolvePair(b0, b1 int, v0, v1 []float64) {
	n0, n1 := bc.dims[b0], bc.dims[b1]
	l0 := bc.l[bc.ptr[b0]:bc.ptr[b0+1]]
	l1 := bc.l[bc.ptr[b1]:bc.ptr[b1+1]]
	rp0, rp1 := 0, 0
	for i := 0; i < n0 || i < n1; i++ {
		if i < n0 {
			s := v0[i]
			row := l0[rp0 : rp0+i]
			vi := v0[:i]
			for k, lik := range row {
				s -= lik * vi[k]
			}
			v0[i] = s / l0[rp0+i]
			rp0 += i + 1
		}
		if i < n1 {
			s := v1[i]
			row := l1[rp1 : rp1+i]
			vi := v1[:i]
			for k, lik := range row {
				s -= lik * vi[k]
			}
			v1[i] = s / l1[rp1+i]
			rp1 += i + 1
		}
	}
	ut0 := bc.ut[bc.ptr[b0]:bc.ptr[b0+1]]
	ut1 := bc.ut[bc.ptr[b1]:bc.ptr[b1+1]]
	up0, up1 := len(ut0), len(ut1)
	for i := max(n0, n1) - 1; i >= 0; i-- {
		if i < n0 {
			w := n0 - i
			up0 -= w
			row := ut0[up0+1 : up0+w]
			s := v0[i]
			vs := v0[i+1 : n0]
			for k, u := range row {
				s -= u * vs[k]
			}
			v0[i] = s / ut0[up0]
		}
		if i < n1 {
			w := n1 - i
			up1 -= w
			row := ut1[up1+1 : up1+w]
			s := v1[i]
			vs := v1[i+1 : n1]
			for k, u := range row {
				s -= u * vs[k]
			}
			v1[i] = s / ut1[up1]
		}
	}
}

//go:generate go run gen_solvequad.go

// SolveAll overwrites v — the blocks' vectors back to back, in block order —
// with A_b⁻¹ v_b for every block: one sweep over the arena, four blocks at a
// time wherever the next four have one size the unrolled solve exists for,
// else two, else one. Each block's operations run in Solve's order on every
// route, so the result is bitwise that of one Solve call per block.
func (bc *BlockCholesky) SolveAll(v []float64) {
	o := 0 // offset of block b's vector in v
	for b, nb := 0, len(bc.dims); b < nb; {
		n := bc.dims[b]
		switch {
		case b+4 <= nb && bc.solveQuad(b, v[o:]):
			b, o = b+4, o+4*n
		case b+2 <= nb:
			n1 := bc.dims[b+1]
			bc.SolvePair(b, b+1, v[o:o+n], v[o+n:o+n+n1])
			b, o = b+2, o+n+n1
		default:
			bc.Solve(b, v[o:o+n])
			b, o = b+1, o+n
		}
	}
}

// solveQuad solves the four consecutive blocks b … b+3, whose vectors start
// v, through the generated code (solvequad_gen.go) — if the four have one size
// and the generator covers it: 9 and 10, what block Jacobi cuts at the
// paper's MaxBlock. Otherwise it touches nothing and reports false.
//
// A lone triangular solve is bound by its division chain. The generated code
// unrolls every row's dot product and interleaves the four blocks row by row,
// so four chains overlap where SolvePair overlaps two, and the loops' index
// arithmetic and bounds checks are gone.
func (bc *BlockCholesky) solveQuad(b int, v []float64) bool {
	n := bc.dims[b]
	if n != bc.dims[b+1] || n != bc.dims[b+2] || n != bc.dims[b+3] {
		return false
	}
	l, ut := bc.l[bc.ptr[b]:bc.ptr[b+4]], bc.ut[bc.ptr[b]:bc.ptr[b+4]]
	switch n {
	case 9:
		solveQuad9(l, ut, v)
	case 10:
		solveQuad10(l, ut, v)
	default:
		return false
	}
	return true
}

// MulVec computes dst = A_b x = L·(Lᵀ x), reconstituting the block operator
// from the packed factor (the reconstruction path's SolveRestricted).
// dst must not alias x. It allocates nothing: t = Lᵀ x is stored in dst and
// L is applied in place, last row first — row i reads t[0..i], which rows
// below it have not touched, with its operands in ascending order.
func (bc *BlockCholesky) MulVec(b int, dst, x []float64) {
	n := bc.dims[b]
	ut := bc.ut[bc.ptr[b]:bc.ptr[b+1]]
	// t = Lᵀ x: ut row i is L[i..n)[i], the column-i dot against x[i..n).
	t := dst[:n]
	up := 0
	for i := 0; i < n; i++ {
		var s float64
		row := ut[up : up+n-i]
		xs := x[i:n]
		for k, u := range row {
			s += u * xs[k]
		}
		t[i] = s
		up += n - i
	}
	// dst = L t. Row i of the packed triangle starts at i(i+1)/2.
	l := bc.l[bc.ptr[b]:bc.ptr[b+1]]
	for i := n - 1; i >= 0; i-- {
		rp := i * (i + 1) / 2
		var s float64
		row := l[rp : rp+i+1]
		for k, v := range row {
			s += v * t[k]
		}
		dst[i] = s
	}
}
