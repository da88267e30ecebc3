package sparse

import "fmt"

// KernelKind selects the storage layout the local SpMV runs through.
//
// Every kind computes the exact same per-row dot products in the exact same
// accumulation order as Local.Mul (the scalar CSR traversal), so solver
// trajectories are bitwise identical across kinds; the layouts differ only in
// how entries are streamed through the CPU. KernelAuto lets the Prepare-time
// planner inspect each row block's structure and pick per block.
type KernelKind int

// Available kernel kinds.
const (
	// KernelAuto (the zero value) picks per row block: the constant-band
	// layout for blocks dominated by shifted-pattern row runs (stencil
	// interiors), scalar CSR otherwise.
	KernelAuto KernelKind = iota
	// KernelCSR forces the generic scalar CSR traversal (the fallback every
	// irregular Matrix-Market input uses).
	KernelCSR
	// KernelBand forces the constant-band/stencil layout (per-run column
	// offset patterns, no per-entry index loads).
	KernelBand
)

// String returns the canonical name of the kind.
func (k KernelKind) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelCSR:
		return "csr"
	case KernelBand:
		return "band"
	default:
		return fmt.Sprintf("KernelKind(%d)", int(k))
	}
}

// Kernel computes the local SpMV of one node through a concrete storage
// layout. The interior/boundary split mirrors Local: MulInterior touches only
// x[:M] and may run while the halo exchange filling x[M:] is in flight;
// MulBoundary needs the received ghost values. All implementations write
// dst[i] exactly once per covered row with the row's products accumulated in
// source entry order, so results are bitwise identical to Local.Mul.
type Kernel interface {
	// Name identifies the layout for reports ("csr", "band", or a mixed
	// "interior+boundary" pair like "band+csr").
	Name() string
	NNZ() int
	InteriorNNZ() int
	BoundaryNNZ() int
	Mul(dst, x []float64)
	MulInterior(dst, x []float64)
	MulBoundary(dst, x []float64)
}

// Name implements Kernel for the generic CSR fallback.
func (l *Local) Name() string { return "csr" }

// blockMul multiplies one row block (the interior or boundary rows) of a
// local matrix.
type blockMul interface {
	mul(dst, x []float64)
	nnz() int
	name() string
}

// planned is a Kernel assembled from one blockMul per row block. The two
// blocks partition the local rows, and rows are independent (each writes only
// its own dst entry), so Mul may run them back to back in any order and still
// match Local.Mul bit for bit.
type planned struct {
	interior blockMul
	boundary blockMul
	label    string
}

func (p *planned) Name() string                 { return p.label }
func (p *planned) NNZ() int                     { return p.interior.nnz() + p.boundary.nnz() }
func (p *planned) InteriorNNZ() int             { return p.interior.nnz() }
func (p *planned) BoundaryNNZ() int             { return p.boundary.nnz() }
func (p *planned) MulInterior(dst, x []float64) { p.interior.mul(dst, x) }
func (p *planned) MulBoundary(dst, x []float64) { p.boundary.mul(dst, x) }
func (p *planned) Mul(dst, x []float64) {
	p.interior.mul(dst, x)
	p.boundary.mul(dst, x)
}

// csrRows is the scalar CSR traversal over an explicit row subset — the
// layout Local.MulInterior/MulBoundary already use, packaged as a blockMul.
type csrRows struct {
	l    *Local
	rows []int
	nz   int
}

func newCSRRows(l *Local, rows []int) *csrRows {
	nz := 0
	for _, i := range rows {
		nz += l.RowPtr[i+1] - l.RowPtr[i]
	}
	return &csrRows{l: l, rows: rows, nz: nz}
}

func (c *csrRows) name() string { return "csr" }
func (c *csrRows) nnz() int     { return c.nz }

func (c *csrRows) mul(dst, x []float64) {
	for _, i := range c.rows {
		dst[i] = c.l.mulRow(i, x)
	}
}

// BuildKernel derives the SpMV kernel of kind for a local matrix. KernelCSR
// returns the Local itself; the other kinds build per-block layouts from the
// Local's storage (per-row source entry order preserved). KernelAuto runs the
// per-block planner; forced kinds apply the same layout to both blocks.
func BuildKernel(l *Local, kind KernelKind) Kernel {
	switch kind {
	case KernelCSR:
		return l
	case KernelBand:
		interior, boundary := findBandRuns(l, l.InteriorRows), findBandRuns(l, l.BoundaryRows)
		interior.transpose(l, l.M+l.G())
		boundary.transpose(l, l.M+l.G())
		return assemble(interior, boundary)
	case KernelAuto:
		ik := planBlock(l, l.InteriorRows)
		bk := planBlock(l, l.BoundaryRows)
		if ik.name() == "csr" && bk.name() == "csr" {
			return l // both blocks degenerate: the Local is the kernel
		}
		return assemble(ik, bk)
	default:
		panic(fmt.Sprintf("sparse: BuildKernel with invalid kind %d", int(kind)))
	}
}

// assemble wraps two block kernels as a planned Kernel, deriving the report
// label from the (non-empty) blocks.
func assemble(interior, boundary blockMul) *planned {
	label := ""
	switch {
	case interior.nnz() == 0 && boundary.nnz() == 0:
		label = interior.name()
	case interior.nnz() == 0:
		label = boundary.name()
	case boundary.nnz() == 0:
		label = interior.name()
	case interior.name() == boundary.name():
		label = interior.name()
	default:
		label = interior.name() + "+" + boundary.name()
	}
	return &planned{interior: interior, boundary: boundary, label: label}
}

// Planner thresholds: a block goes to the band layout when at least
// bandCoverage of its rows sit in shifted-pattern runs long enough to feed
// the unrolled band loop. A stencil slab's grid-edge rows break the runs at
// every grid line, capping coverage near (n-2)/n, so moderate coverage must
// already win: the rows outside runs still take the band kernel, gathered
// into quads of equal offset pattern on the vector path and one row at a
// time with no per-entry index load on the portable one.
const (
	bandMinRun   = bandUnroll
	bandCoverage = 0.6
)

// planBlock inspects one row block's structure and picks its layout: band
// when shifted-pattern runs dominate, scalar CSR otherwise.
func planBlock(l *Local, rows []int) blockMul {
	if len(rows) == 0 {
		return newCSRRows(l, rows)
	}
	band := findBandRuns(l, rows)
	if float64(band.coveredRows()) >= bandCoverage*float64(len(rows)) {
		band.transpose(l, l.M+l.G())
		return band
	}
	return newCSRRows(l, rows)
}
