package dense

import (
	"fmt"
	"math"

	"esrp/internal/cpu"
)

// BlockCholesky is a batch of small Cholesky factors in one flat arena,
// allocated once: the packed lower triangles of many independent SPD blocks,
// row-major, without the zero half that full N×N storage carries and without
// a transposed copy — the backward passes read column i of L where they need
// it. The block Jacobi preconditioner holds its many ≤10×10 diagonal blocks
// this way: one backsolve sweep then streams a few contiguous kilobytes
// instead of chasing per-block heap pointers.
//
// Four consecutive blocks that SolveAll solves as one group (one size the
// generated solves cover: 9 or 10) have their triangles interleaved
// [entry][lane], so entry e of all four is one 32-byte load — lane q's
// L[i][k] sits at lanes·(i(i+1)/2+k)+q from the group's start. Every other
// block is packed alone.
//
// Factorization and the triangular solves perform the exact same operations
// in the exact same order as Factor/Cholesky.Solve on each block, so results
// are bitwise identical to the per-block path.
type BlockCholesky struct {
	slots []slot
	l     []float64 // Σ n(n+1)/2 floats
}

// slot places one block in the arena: entry e of its packed lower triangle
// (row i starts at entry i(i+1)/2) is l[off+e·step], step being lanes inside a
// group and 1 elsewhere.
type slot struct{ n, off, step int }

// lanes is the number of blocks in a group: one per float64 lane of a ymm
// register.
const lanes = 4

// NewBlockCholesky lays out the arena for blocks of the given sizes, in
// order, and allocates it; Factor fills it block by block. A group is
// formed wherever SolveAll's walk — four blocks of one size it has a
// generated solve for, else two, else one — meets four such blocks.
func NewBlockCholesky(dims []int) *BlockCholesky {
	bc := &BlockCholesky{slots: make([]slot, len(dims))}
	size := 0
	for b, nb := 0, len(dims); b < nb; {
		n := dims[b]
		tri := n * (n + 1) / 2
		if (n == 9 || n == 10) && b+lanes <= nb && dims[b+1] == n && dims[b+2] == n && dims[b+3] == n {
			for q := 0; q < lanes; q++ {
				bc.slots[b+q] = slot{n, size + q, lanes}
			}
			b, size = b+lanes, size+lanes*tri
			continue
		}
		for k := min(2, nb-b); k > 0; k-- { // the pair SolveAll takes instead
			m := dims[b]
			bc.slots[b] = slot{m, size, 1}
			b, size = b+1, size+m*(m+1)/2
		}
	}
	bc.l = make([]float64, size)
	return bc
}

// NumBlocks returns the number of blocks.
func (bc *BlockCholesky) NumBlocks() int { return len(bc.slots) }

// Factor factors the SPD matrix a, whose size must be block b's, into block
// b's place in the arena. On a non-positive pivot it returns an error
// wrapping ErrNotSPD, and block b holds no factor.
func (bc *BlockCholesky) Factor(b int, a *Matrix) error {
	s := bc.slots[b]
	if a.N != s.n {
		return fmt.Errorf("dense: block %d has %d rows, got a %d×%d matrix", b, s.n, a.N, a.N)
	}
	n, st := s.n, s.step
	l := bc.l[s.off:]
	// L[i][k] is l[at(i, k)]. The update loops below are Factor's, re-indexed.
	at := func(i, k int) int { return (i*(i+1)/2 + k) * st }
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			v := l[at(j, k)]
			d -= v * v
		}
		if !(d > 0) {
			return fmt.Errorf("%w (pivot %d = %g)", ErrNotSPD, j, d)
		}
		ljj := math.Sqrt(d)
		l[at(j, j)] = ljj
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l[at(i, k)] * l[at(j, k)]
			}
			l[at(i, j)] = s / ljj
		}
	}
	return nil
}

// Solve overwrites v (length n of block b) with A_b⁻¹ v: forward
// substitution along the rows of the packed lower triangle, backward along
// its columns — operand for operand the same arithmetic as Cholesky.Solve.
func (bc *BlockCholesky) Solve(b int, v []float64) {
	s := bc.slots[b]
	n, st := s.n, s.step
	l := bc.l[s.off:]
	v = v[:n]
	// Forward: L y = v. e walks the triangle entry by entry, row after row.
	e := 0
	for i := range v {
		sum := v[i]
		for k, vk := range v[:i] {
			sum -= l[e+k*st] * vk
		}
		e += i * st
		v[i] = sum / l[e]
		e += st
	}
	// Backward: Lᵀ x = y. Column i holds L[i][i], L[i+1][i], …, L[n-1][i];
	// L[k+1][i] is k+1 entries after L[k][i].
	for i := n - 1; i >= 0; i-- {
		sum := v[i]
		diag := (i*(i+1)/2 + i) * st
		e, d := diag+(i+1)*st, (i+2)*st
		for _, vk := range v[i+1:] {
			sum -= l[e] * vk
			e, d = e+d, d+st
		}
		v[i] = sum / l[diag]
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
	s0, s1 := bc.slots[b0], bc.slots[b1]
	n0, n1, st0, st1 := s0.n, s1.n, s0.step, s1.step
	l0, l1 := bc.l[s0.off:], bc.l[s1.off:]
	v0, v1 = v0[:n0], v1[:n1]
	e0, e1 := 0, 0
	for i := 0; i < n0 || i < n1; i++ {
		if i < n0 {
			sum := v0[i]
			for k, vk := range v0[:i] {
				sum -= l0[e0+k*st0] * vk
			}
			e0 += i * st0
			v0[i] = sum / l0[e0]
			e0 += st0
		}
		if i < n1 {
			sum := v1[i]
			for k, vk := range v1[:i] {
				sum -= l1[e1+k*st1] * vk
			}
			e1 += i * st1
			v1[i] = sum / l1[e1]
			e1 += st1
		}
	}
	for i := max(n0, n1) - 1; i >= 0; i-- {
		if i < n0 {
			sum := v0[i]
			diag := (i*(i+1)/2 + i) * st0
			e, d := diag+(i+1)*st0, (i+2)*st0
			for _, vk := range v0[i+1:] {
				sum -= l0[e] * vk
				e, d = e+d, d+st0
			}
			v0[i] = sum / l0[diag]
		}
		if i < n1 {
			sum := v1[i]
			diag := (i*(i+1)/2 + i) * st1
			e, d := diag+(i+1)*st1, (i+2)*st1
			for _, vk := range v1[i+1:] {
				sum -= l1[e] * vk
				e, d = e+d, d+st1
			}
			v1[i] = sum / l1[diag]
		}
	}
}

//go:generate go run gen_solvequad.go

// route is how SolveAll solves a block and the ones it takes with it.
type route uint8

const (
	routeOne   route = iota // Solve, the block alone
	routePair               // SolvePair, the block and the next
	routeQuad               // the generated Go solve of a group (solvequad_gen.go)
	routeLanes              // the AVX solve of a group (solvequad_amd64.s)
)

// route reports how SolveAll solves block b, which its walk reaches: a group
// through the AVX solve wherever cpu.AVX holds and through the generated Go
// one elsewhere (tests clear cpu.AVX to take it), else two blocks, else the
// last one alone.
func (bc *BlockCholesky) route(b int) route {
	switch {
	case bc.slots[b].step == lanes && cpu.AVX:
		return routeLanes
	case bc.slots[b].step == lanes:
		return routeQuad
	case b+2 <= len(bc.slots):
		return routePair
	}
	return routeOne
}

// SolveAll overwrites v — the blocks' vectors back to back, in block order —
// with A_b⁻¹ v_b for every block: one sweep over the arena, a group of four
// at a time wherever the layout formed one, else two, else one. Each
// block's operations run in Solve's order on every route, so the result is
// bitwise that of one Solve call per block.
//
// A lone triangular solve is bound by its division chain. The group solves
// unroll every row's dot product and run four blocks at once — in the four
// lanes of one register, or interleaved row by row in Go — so four chains
// overlap where SolvePair overlaps two.
func (bc *BlockCholesky) SolveAll(v []float64) {
	o := 0 // offset of block b's vector in v
	for b := 0; b < len(bc.slots); {
		s := bc.slots[b]
		n := s.n
		switch bc.route(b) {
		case routeLanes:
			l, g := bc.group(s, v[o:])
			if n == 9 {
				solveLanes9(&l[0], &g[0])
			} else {
				solveLanes10(&l[0], &g[0])
			}
			b, o = b+lanes, o+lanes*n
		case routeQuad:
			l, g := bc.group(s, v[o:])
			if n == 9 {
				solveQuad9(l, g)
			} else {
				solveQuad10(l, g)
			}
			b, o = b+lanes, o+lanes*n
		case routePair:
			n1 := bc.slots[b+1].n
			bc.SolvePair(b, b+1, v[o:o+n], v[o+n:o+n+n1])
			b, o = b+2, o+n+n1
		default:
			bc.Solve(b, v[o:o+n])
			b, o = b+1, o+n
		}
	}
}

// group returns the arena and the vectors of the group whose first block is
// s, its vectors starting at v: exactly what the group solves read and write.
func (bc *BlockCholesky) group(s slot, v []float64) (l, g []float64) {
	return bc.l[s.off : s.off+lanes*s.n*(s.n+1)/2], v[:lanes*s.n]
}

// MulVec computes dst = A_b x = L·(Lᵀ x), reconstituting the block operator
// from the packed factor (the reconstruction path's SolveRestricted).
// dst must not alias x. It allocates nothing: t = Lᵀ x is stored in dst and
// L is applied in place, last row first — row i reads t[0..i], which rows
// below it have not touched, with its operands in ascending order.
func (bc *BlockCholesky) MulVec(b int, dst, x []float64) {
	s := bc.slots[b]
	n, st := s.n, s.step
	l := bc.l[s.off:]
	x = x[:n]
	// t = Lᵀ x: t[i] is column i of L, L[i..n)[i], dotted with x[i..n).
	t := dst[:n]
	for i := range t {
		var sum float64
		e, d := (i*(i+1)/2+i)*st, (i+1)*st
		for _, xk := range x[i:] {
			sum += l[e] * xk
			e, d = e+d, d+st
		}
		t[i] = sum
	}
	// dst = L t, row i of L dotted with t[0..i].
	for i := n - 1; i >= 0; i-- {
		e := i * (i + 1) / 2 * st
		var sum float64
		for k, tk := range t[:i+1] {
			sum += l[e+k*st] * tk
		}
		dst[i] = sum
	}
}
