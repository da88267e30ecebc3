package sparse

// cpuHasAVX reports whether the CPU and the operating system both support
// 256-bit AVX: CPUID leaf 1 announces OSXSAVE and AVX, and XCR0 says the
// system saves the xmm and ymm halves on a context switch.
func cpuHasAVX() bool

// bandMulChunks multiplies the chunked rows of one period-1 band run: n8
// chunks of 8 rows, then n4 ∈ {0, 1} chunks of 4, their values at vt laid out
// [chunk][entry k][lane]. x and dst point at the run's first row; row r's
// entry k multiplies x[r+off[k]], and each row's products are summed in
// entry order into an accumulator that starts at +0 — multiply, round, add,
// round, never fused. The routine checks no bounds (bandRows.mul does) and
// allocates nothing.
//
//go:noescape
func bandMulChunks(vt *float64, off *int, w int, x, dst *float64, n8, n4 int)

// bandMulGroups multiplies one period-3 band run: n4 chunks of 4 groups of
// three rows, then n2 ∈ {0, 1} chunks of 2, then n1 ∈ {0, 1} single groups,
// their values at vt laid out [chunk][entry k][group][lane], four lanes per
// group of which the fourth is padding. x and dst point at the run's first
// row; every row of group g reads entry k at x[3g+off[k]], and each row's
// products are summed in entry order into an accumulator that starts at +0 —
// multiply, round, add, round, never fused. It stores exactly the run's rows,
// checks no bounds (bandRows.mul does) and allocates nothing.
//
//go:noescape
func bandMulGroups(vt *float64, off *int, w int, x, dst *float64, n4, n2, n1 int)
