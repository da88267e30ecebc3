package precond

import (
	"fmt"
	"math"

	"esrp/internal/sparse"
)

// IC0PC is a node-local zero-fill incomplete Cholesky preconditioner:
// A[Iloc,Iloc] ≈ L·Lᵀ with L restricted to the lower-triangular sparsity of
// the local diagonal block, and P = (L·Lᵀ)⁻¹ applied by forward/backward
// substitution.
//
// The paper's conclusions call for evaluating ESRP with "more appropriate
// preconditioners" than block Jacobi; IC(0) is the classic next step. It
// remains node-local (blocks never cross the partition), so the exact state
// reconstruction of Alg. 2 works unchanged: P[If, I\If] = 0 and
// SolveRestricted is a pair of sparse triangular multiplications,
// r = L·(Lᵀ·v).
//
// Factorization breakdown (a non-positive pivot, possible for general SPD
// matrices under zero fill) is handled with the standard Manteuffel-style
// diagonal shift: the local block is refactored as IC0(A + αI) with α
// doubling until the factorization succeeds.
type IC0PC struct {
	n int
	// Lower-triangular factor in CSR (row-major, diagonal last in each row).
	rowPtr []int
	colIdx []int
	val    []float64
	shift  float64 // diagonal shift α used (0 in the common case)
	flops  float64

	// runs is the band decomposition of the factor's sparsity: maximal row
	// ranges whose column pattern is one offset set shifted with the row
	// (diagonal last, offset 0). On stencil blocks the whole factor is a
	// handful of runs, and both substitution sweeps then walk offset
	// patterns instead of loading a column index per entry. nil when runs
	// are too short to pay (irregular blocks keep the generic CSR sweeps).
	// Either path performs identical arithmetic in identical order.
	runs []icRun
}

// icRun is one shifted-pattern row range [i0,i1) of the factor: entry k of
// row i sits at column i+off[k], with off[len-1] = 0 (the diagonal).
type icRun struct {
	i0, i1 int
	off    []int
}

// icMinRunAvg gates the band substitution: below this average run length the
// pattern bookkeeping costs more than the saved index loads.
const icMinRunAvg = 4

// buildRuns decomposes the factored pattern into shifted runs, keeping them
// only when long runs dominate.
func (p *IC0PC) buildRuns() {
	var runs []icRun
	for i := 0; i < p.n; {
		r0, r1 := p.rowPtr[i], p.rowPtr[i+1]
		off := make([]int, r1-r0)
		for k, t := 0, r0; t < r1; k, t = k+1, t+1 {
			off[k] = p.colIdx[t] - i
		}
		u := i + 1
		for u < p.n && p.sameShiftedRow(u, off) {
			u++
		}
		runs = append(runs, icRun{i0: i, i1: u, off: off})
		i = u
	}
	if p.n > 0 && float64(p.n) >= icMinRunAvg*float64(len(runs)) {
		p.runs = runs
	}
}

// sameShiftedRow reports whether factor row i's columns equal i+off entry
// for entry.
func (p *IC0PC) sameShiftedRow(i int, off []int) bool {
	r0, r1 := p.rowPtr[i], p.rowPtr[i+1]
	if r1-r0 != len(off) {
		return false
	}
	for k, t := 0, r0; t < r1; k, t = k+1, t+1 {
		if p.colIdx[t] != i+off[k] {
			return false
		}
	}
	return true
}

// NewIC0 builds the node-local IC(0) preconditioner for rows [lo,hi) of a.
func NewIC0(a *sparse.CSR, lo, hi int) (*IC0PC, error) {
	n := hi - lo
	p := &IC0PC{n: n}
	if n == 0 {
		p.rowPtr = []int{0}
		return p, nil
	}
	// Extract the lower triangle (local indices) of the diagonal block.
	var maxDiag float64
	p.rowPtr = make([]int, n+1)
	for i := lo; i < hi; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			if j >= lo && j <= i {
				p.rowPtr[i-lo+1]++
				if j == i && vals[k] > maxDiag {
					maxDiag = vals[k]
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		p.rowPtr[i+1] += p.rowPtr[i]
	}
	nnz := p.rowPtr[n]
	p.colIdx = make([]int, nnz)
	base := make([]float64, nnz) // original block values (lower triangle)
	pos := append([]int(nil), p.rowPtr[:n]...)
	diagPos := make([]int, n)
	for i := lo; i < hi; i++ {
		cols, vals := a.Row(i)
		li := i - lo
		hasDiag := false
		for k, j := range cols {
			if j >= lo && j <= i {
				p.colIdx[pos[li]] = j - lo
				base[pos[li]] = vals[k]
				if j == i {
					diagPos[li] = pos[li]
					hasDiag = true
				}
				pos[li]++
			}
		}
		if !hasDiag {
			return nil, fmt.Errorf("precond: row %d has no diagonal entry", i)
		}
		if diagPos[li] != p.rowPtr[li+1]-1 {
			return nil, fmt.Errorf("precond: row %d diagonal not last in lower triangle", i)
		}
	}
	// Factor, shifting the diagonal on breakdown.
	p.val = make([]float64, nnz)
	shift := 0.0
	for attempt := 0; ; attempt++ {
		if err := p.factor(base, shift); err == nil {
			break
		}
		if attempt == 0 {
			shift = 1e-3 * maxDiag
		} else {
			shift *= 2
		}
		if attempt > 60 || !(shift > 0) {
			return nil, fmt.Errorf("precond: IC(0) breakdown persists up to shift %g", shift)
		}
	}
	p.shift = shift
	p.flops = 4 * float64(nnz) // forward + backward substitution
	p.buildRuns()
	return p, nil
}

// factor runs the zero-fill incomplete Cholesky on the stored pattern with
// the given diagonal shift, writing into p.val. It returns an error on a
// non-positive pivot.
func (p *IC0PC) factor(base []float64, shift float64) error {
	n := p.n
	for i := 0; i < n; i++ {
		r0, r1 := p.rowPtr[i], p.rowPtr[i+1]
		for t := r0; t < r1; t++ {
			j := p.colIdx[t]
			s := base[t]
			if j == i {
				s += shift
			}
			// s -= Σ_k L[i,k]·L[j,k] over shared k < j.
			ti, tj := r0, p.rowPtr[j]
			tiEnd, tjEnd := r1, p.rowPtr[j+1]-1 // exclude j's diagonal
			for ti < tiEnd && tj < tjEnd {
				ci, cj := p.colIdx[ti], p.colIdx[tj]
				switch {
				case ci < cj:
					ti++
				case cj < ci:
					tj++
				default:
					if ci >= j {
						ti, tj = tiEnd, tjEnd // done: only k < j contribute
						break
					}
					s -= p.val[ti] * p.val[tj]
					ti++
					tj++
				}
			}
			if j == i {
				if s <= 0 {
					return fmt.Errorf("precond: non-positive pivot %g at local row %d", s, i)
				}
				p.val[t] = math.Sqrt(s)
			} else {
				p.val[t] = s / p.val[p.rowPtr[j+1]-1]
			}
		}
	}
	return nil
}

// Apply implements Preconditioner: z = (L·Lᵀ)⁻¹ r by forward substitution
// L·y = r followed by backward substitution Lᵀ·z = y. On stencil blocks both
// sweeps walk the factor's band runs (no per-entry column loads); the
// generic CSR sweeps remain for irregular patterns. Same operands, same
// order, bitwise-identical z either way.
func (p *IC0PC) Apply(z, r []float64) {
	if p.runs != nil {
		p.applyBand(z, r)
		return
	}
	n := p.n
	// Forward: y overwrites z.
	for i := 0; i < n; i++ {
		s := r[i]
		r0, r1 := p.rowPtr[i], p.rowPtr[i+1]
		for t := r0; t < r1-1; t++ {
			s -= p.val[t] * z[p.colIdx[t]]
		}
		z[i] = s / p.val[r1-1]
	}
	// Backward: traverse rows in reverse, scattering.
	for i := n - 1; i >= 0; i-- {
		r0, r1 := p.rowPtr[i], p.rowPtr[i+1]
		zi := z[i] / p.val[r1-1]
		z[i] = zi
		for t := r0; t < r1-1; t++ {
			z[p.colIdx[t]] -= p.val[t] * zi
		}
	}
}

// applyBand is Apply's substitution pair over the factor's band runs.
func (p *IC0PC) applyBand(z, r []float64) {
	for _, rn := range p.runs {
		w := len(rn.off)
		off := rn.off[:max(w-1, 0)] // off-diagonal offsets (diagonal is last)
		vi := p.rowPtr[rn.i0]
		for i := rn.i0; i < rn.i1; i++ {
			s := r[i]
			v := p.val[vi : vi+w-1]
			for k, o := range off {
				s -= v[k] * z[i+o]
			}
			z[i] = s / p.val[vi+w-1]
			vi += w
		}
	}
	for ri := len(p.runs) - 1; ri >= 0; ri-- {
		rn := p.runs[ri]
		w := len(rn.off)
		off := rn.off[:max(w-1, 0)]
		vi := p.rowPtr[rn.i1] - w
		for i := rn.i1 - 1; i >= rn.i0; i-- {
			zi := z[i] / p.val[vi+w-1]
			z[i] = zi
			v := p.val[vi : vi+w-1]
			for k, o := range off {
				z[i+o] -= v[k] * zi
			}
			vi -= w
		}
	}
}

// ApplyFlops implements Preconditioner.
func (p *IC0PC) ApplyFlops() float64 { return p.flops }

// SolveRestricted implements Preconditioner: P = (L·Lᵀ)⁻¹ on the local
// block, so solving P[Iloc,Iloc]·r = v is the multiplication r = L·(Lᵀ·v).
func (p *IC0PC) SolveRestricted(r, v []float64) {
	n := p.n
	// u = Lᵀ·v (gather transposed: u[i] = Σ_j L[j,i]·v[j] = column dot).
	u := make([]float64, n)
	for j := 0; j < n; j++ {
		r0, r1 := p.rowPtr[j], p.rowPtr[j+1]
		vj := v[j]
		for t := r0; t < r1; t++ {
			u[p.colIdx[t]] += p.val[t] * vj
		}
	}
	// r = L·u.
	for i := 0; i < n; i++ {
		s := 0.0
		r0, r1 := p.rowPtr[i], p.rowPtr[i+1]
		for t := r0; t < r1; t++ {
			s += p.val[t] * u[p.colIdx[t]]
		}
		r[i] = s
	}
}

// SolveRestrictedFlops implements Preconditioner.
func (p *IC0PC) SolveRestrictedFlops() float64 { return p.flops }

// CouplesAcrossNodes implements Preconditioner: the factorization is
// restricted to the node's diagonal block.
func (*IC0PC) CouplesAcrossNodes() bool { return false }
