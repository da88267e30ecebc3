// Package precond implements the preconditioners used by the paper's
// experiments. The solver applies the preconditioner as a linear operator
// z = P·r (P ≈ A⁻¹); the ESR reconstruction phase additionally needs the
// *inverse* action restricted to the failed index range (line 6 of Alg. 2:
// solve P[If,If]·r = v).
//
// The paper uses a block Jacobi preconditioner with non-overlapping,
// uniformly sized blocks of at most 10 rows, all rows of a block owned by a
// single node. Because blocks never cross node boundaries, P is block
// diagonal with respect to the partition, so P[If, I\If] = 0 and both Apply
// and SolveRestricted are node-local operations.
package precond

import (
	"fmt"

	"esrp/internal/dense"
	"esrp/internal/sparse"
)

// Preconditioner is the node-local preconditioner interface. All methods
// operate on the local index range [lo,hi) the instance was built for;
// slices have length hi-lo.
type Preconditioner interface {
	// Apply computes z = P·r on the local range.
	Apply(z, r []float64)
	// ApplyFlops returns the modeled flop count of one Apply.
	ApplyFlops() float64
	// SolveRestricted solves P[Iloc,Iloc]·r = v for r on the local range.
	// For preconditioners representing an inverse action (like block
	// Jacobi), this is a forward multiplication by the original blocks.
	SolveRestricted(r, v []float64)
	// SolveRestrictedFlops returns the modeled flop count of one
	// SolveRestricted.
	SolveRestrictedFlops() float64
	// CouplesAcrossNodes reports whether P has nonzeros outside the node
	// diagonal blocks (then P[If, I\If] ≠ 0 and reconstruction would need a
	// halo of r; false for every implementation here).
	CouplesAcrossNodes() bool
}

// Kind selects a preconditioner implementation.
type Kind int

// Available preconditioner kinds. The zero value Default lets Config structs
// leave the field unset and get the paper's choice (block Jacobi); pass None
// explicitly for plain CG.
const (
	Default Kind = iota // unset: the solver substitutes BlockJacobi
	None                // identity (plain CG)
	Jacobi
	BlockJacobi
	IC0 // node-local zero-fill incomplete Cholesky (paper's future work)
)

// String returns the canonical name of the kind.
func (k Kind) String() string {
	switch k {
	case Default:
		return "default"
	case None:
		return "none"
	case Jacobi:
		return "jacobi"
	case BlockJacobi:
		return "block-jacobi"
	case IC0:
		return "ic0"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind converts a name to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "none", "identity":
		return None, nil
	case "jacobi":
		return Jacobi, nil
	case "block-jacobi", "blockjacobi", "bj":
		return BlockJacobi, nil
	case "ic0", "icc", "ichol":
		return IC0, nil
	}
	return None, fmt.Errorf("precond: unknown kind %q", s)
}

// Build constructs the preconditioner of the given kind for the local row
// range [lo,hi) of matrix a. maxBlock bounds the block size for BlockJacobi
// (the paper uses 10).
func Build(kind Kind, a *sparse.CSR, lo, hi, maxBlock int) (Preconditioner, error) {
	switch kind {
	case None:
		return Identity{n: hi - lo}, nil
	case Jacobi:
		return NewJacobi(a, lo, hi)
	case Default, BlockJacobi:
		return NewBlockJacobi(a, lo, hi, maxBlock)
	case IC0:
		return NewIC0(a, lo, hi)
	default:
		return nil, fmt.Errorf("precond: unknown kind %d", int(kind))
	}
}

// Identity is the trivial preconditioner P = I (plain CG).
type Identity struct{ n int }

// Apply implements Preconditioner: z = r.
func (p Identity) Apply(z, r []float64) { copy(z, r) }

// ApplyFlops implements Preconditioner.
func (Identity) ApplyFlops() float64 { return 0 }

// SolveRestricted implements Preconditioner: r = v.
func (p Identity) SolveRestricted(r, v []float64) { copy(r, v) }

// SolveRestrictedFlops implements Preconditioner.
func (Identity) SolveRestrictedFlops() float64 { return 0 }

// CouplesAcrossNodes implements Preconditioner.
func (Identity) CouplesAcrossNodes() bool { return false }

// PointJacobi is the diagonal preconditioner P = diag(A)⁻¹.
type PointJacobi struct {
	invDiag []float64
	diag    []float64
}

// NewJacobi builds the point Jacobi preconditioner for rows [lo,hi) of a.
func NewJacobi(a *sparse.CSR, lo, hi int) (*PointJacobi, error) {
	n := hi - lo
	p := &PointJacobi{invDiag: make([]float64, n), diag: make([]float64, n)}
	for i := lo; i < hi; i++ {
		d := a.At(i, i)
		if d <= 0 {
			return nil, fmt.Errorf("precond: non-positive diagonal %g at row %d", d, i)
		}
		p.diag[i-lo] = d
		p.invDiag[i-lo] = 1 / d
	}
	return p, nil
}

// Apply implements Preconditioner: z_i = r_i / A_ii.
func (p *PointJacobi) Apply(z, r []float64) {
	for i := range z {
		z[i] = r[i] * p.invDiag[i]
	}
}

// ApplyFlops implements Preconditioner.
func (p *PointJacobi) ApplyFlops() float64 { return float64(len(p.invDiag)) }

// SolveRestricted implements Preconditioner: P is diag(A)⁻¹, so solving
// P·r = v means r_i = A_ii·v_i.
func (p *PointJacobi) SolveRestricted(r, v []float64) {
	for i := range r {
		r[i] = v[i] * p.diag[i]
	}
}

// SolveRestrictedFlops implements Preconditioner.
func (p *PointJacobi) SolveRestrictedFlops() float64 { return float64(len(p.diag)) }

// CouplesAcrossNodes implements Preconditioner.
func (*PointJacobi) CouplesAcrossNodes() bool { return false }

// BlockJacobiPC applies P = blockdiag(B_1⁻¹, …, B_m⁻¹) where each B_b is a
// dense diagonal block of A, factored once by Cholesky at construction. The
// factors of all blocks live in one flat packed-triangle arena
// (dense.BlockCholesky), so the per-iteration Apply is a single batched
// backsolve sweep over contiguous memory instead of a pointer chase through
// per-block heap objects.
type BlockJacobiPC struct {
	offsets []int // local block boundaries, offsets[0]=0 … offsets[m]=n
	bc      *dense.BlockCholesky
	flops   float64
}

// NewBlockJacobi builds the block Jacobi preconditioner for rows [lo,hi) of
// a, with uniformly sized non-overlapping blocks of at most maxBlock rows
// ("as few blocks as possible", per the paper's Section 5).
func NewBlockJacobi(a *sparse.CSR, lo, hi, maxBlock int) (*BlockJacobiPC, error) {
	if maxBlock <= 0 {
		return nil, fmt.Errorf("precond: maxBlock must be positive, got %d", maxBlock)
	}
	n := hi - lo
	if n == 0 {
		return &BlockJacobiPC{offsets: []int{0}, bc: dense.NewBlockCholesky(nil)}, nil
	}
	nblocks := (n + maxBlock - 1) / maxBlock
	p := &BlockJacobiPC{offsets: make([]int, nblocks+1)}
	dims := make([]int, nblocks)
	for b := range dims {
		dims[b] = n / nblocks
		if b < n%nblocks {
			dims[b]++
		}
		p.offsets[b+1] = p.offsets[b] + dims[b]
	}
	p.bc = dense.NewBlockCholesky(dims)
	blk := dense.New(dims[0]) // the largest; every block refills a cleared prefix
	for b, bs := range dims {
		b0, b1 := lo+p.offsets[b], lo+p.offsets[b+1]
		blk.N, blk.Data = bs, blk.Data[:bs*bs]
		clear(blk.Data)
		for i := b0; i < b1; i++ {
			cols, vals := a.Row(i)
			for k, j := range cols {
				if j >= b0 && j < b1 {
					blk.Set(i-b0, j-b0, vals[k])
				}
			}
		}
		if err := p.bc.Factor(b, blk); err != nil {
			return nil, fmt.Errorf("precond: block %d (rows %d..%d): %w", b, b0, b1, err)
		}
		p.flops += 2 * float64(bs*bs)
	}
	return p, nil
}

// Apply implements Preconditioner: per block, z_b = B_b⁻¹ r_b — one batched
// sweep over the flat factor arena.
func (p *BlockJacobiPC) Apply(z, r []float64) {
	n := p.offsets[len(p.offsets)-1]
	if n > 0 && &z[0] != &r[0] {
		copy(z[:n], r[:n])
	}
	p.bc.SolveAll(z[:n])
}

// ApplyFlops implements Preconditioner.
func (p *BlockJacobiPC) ApplyFlops() float64 { return p.flops }

// SolveRestricted implements Preconditioner. P's diagonal blocks are the
// *inverses* B_b⁻¹, so solving P[Iloc,Iloc]·r = v amounts to multiplying by
// the original blocks: r_b = B_b·v_b, reconstituted from the Cholesky factor.
func (p *BlockJacobiPC) SolveRestricted(r, v []float64) {
	for b := 0; b < p.bc.NumBlocks(); b++ {
		b0, b1 := p.offsets[b], p.offsets[b+1]
		p.bc.MulVec(b, r[b0:b1], v[b0:b1])
	}
}

// SolveRestrictedFlops implements Preconditioner.
func (p *BlockJacobiPC) SolveRestrictedFlops() float64 { return p.flops }

// CouplesAcrossNodes implements Preconditioner: blocks are node-local.
func (*BlockJacobiPC) CouplesAcrossNodes() bool { return false }
