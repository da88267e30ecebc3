package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// localOf extracts the Local view of rows [lo,hi) of a, deriving the ghost
// set from the rows' out-of-range references (what aspmv.Plan.Ghost would
// deliver).
func localOf(t testing.TB, a *CSR, lo, hi int) *Local {
	t.Helper()
	seen := map[int]bool{}
	for i := lo; i < hi; i++ {
		cols, _ := a.Row(i)
		for _, j := range cols {
			if j < lo || j >= hi {
				seen[j] = true
			}
		}
	}
	ghost := make([]int, 0, len(seen))
	for j := range seen {
		ghost = append(ghost, j)
	}
	sort.Ints(ghost)
	l, err := NewLocal(a, lo, hi, ghost)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// newBandRows builds the band layout of rows whatever the planner would pick.
func newBandRows(l *Local, rows []int) *bandRows {
	b := findBandRuns(l, rows)
	b.transpose(l, l.M+l.G())
	return b
}

// stencil27 builds a scalar 27-point stencil matrix on an n³ grid — the
// Emilia/audikw sparsity-pattern class the band kernel targets.
func stencil27(n int) *CSR { return stencilGrid(n, n, n) }

// stencilGrid is the 27-point stencil on an nx×ny×nz grid, z fastest: the
// sparsity pattern of matgen.EmiliaLike(nx, ny, nz), which this package
// cannot import.
func stencilGrid(nx, ny, nz int) *CSR {
	idx := func(i, j, k int) int { return (i*ny+j)*nz + k }
	b := NewBuilder(nx*ny*nz, nx*ny*nz)
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			for k := 0; k < nz; k++ {
				r := idx(i, j, k)
				diag := 1.0
				for di := -1; di <= 1; di++ {
					for dj := -1; dj <= 1; dj++ {
						for dk := -1; dk <= 1; dk++ {
							if di == 0 && dj == 0 && dk == 0 {
								continue
							}
							ii, jj, kk := i+di, j+dj, k+dk
							if ii < 0 || ii >= nx || jj < 0 || jj >= ny || kk < 0 || kk >= nz {
								continue
							}
							w := 1 / float64(di*di+dj*dj+dk*dk)
							b.Add(r, idx(ii, jj, kk), -w)
							diag += w
						}
					}
				}
				b.Add(r, r, diag)
			}
		}
	}
	return b.Build()
}

// stencilDof is the 27-point stencil on an nx×ny×nz grid of vertices, z
// fastest, with dof rows per vertex, each coupling every dof column of its own
// vertex and of each neighbour: the sparsity pattern of matgen.AudikwLike(nx,
// ny, nz, dof), whose rows form period-dof band runs. Values are random, so no
// two rows of a group agree.
func stencilDof(nx, ny, nz, dof int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	idx := func(i, j, k int) int { return (i*ny+j)*nz + k }
	n := nx * ny * nz * dof
	b := NewBuilder(n, n)
	for i := 0; i < nx; i++ {
		for j := 0; j < ny; j++ {
			for k := 0; k < nz; k++ {
				for di := -1; di <= 1; di++ {
					for dj := -1; dj <= 1; dj++ {
						for dk := -1; dk <= 1; dk++ {
							ii, jj, kk := i+di, j+dj, k+dk
							if ii < 0 || ii >= nx || jj < 0 || jj >= ny || kk < 0 || kk >= nz {
								continue
							}
							for a := 0; a < dof; a++ {
								for c := 0; c < dof; c++ {
									b.Add(idx(i, j, k)*dof+a, idx(ii, jj, kk)*dof+c, rng.NormFloat64())
								}
							}
						}
					}
				}
			}
		}
	}
	return b.Build()
}

// raggedSparse builds a deliberately irregular matrix: random row lengths,
// empty rows, and rows whose only entries are far off-diagonal.
func raggedSparse(n int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0: // empty row
		case 1: // diagonal only
			b.Add(i, i, 1+rng.Float64())
		default:
			for k, kn := 0, 1+rng.Intn(7); k < kn; k++ {
				b.Add(i, rng.Intn(n), rng.NormFloat64())
			}
		}
	}
	return b.Build()
}

// runLengths builds a matrix whose rows form period-1 band runs of every
// length 1…17, each row coupling columns i−1, i and i+2, with a diagonal-only
// row between two runs: between them the runs take every chunk shape of the
// vector path — 8+8+tail, 8+4+tail, 8+tail, 4+tail and tail only.
func runLengths() *CSR {
	n := 2 + 17*18/2 + 17 + 3
	rng := rand.New(rand.NewSource(17))
	b := NewBuilder(n, n)
	i := 2
	b.Add(0, 0, 1)
	b.Add(1, 1, 1)
	for length := 1; length <= 17; length++ {
		for r := 0; r < length; r, i = r+1, i+1 {
			b.Add(i, i-1, rng.NormFloat64())
			b.Add(i, i, 4+rng.Float64())
			b.Add(i, i+2, rng.NormFloat64())
		}
		b.Add(i, i, 1)
		i++
	}
	for ; i < n; i++ {
		b.Add(i, i, 1)
	}
	return b.Build()
}

// groupLengths builds a matrix whose rows form period-3 band runs of every
// length 1…9 groups, the three rows of the group at i coupling columns i−2,
// i, i+1, i+2 and i+4, with a diagonal-only row after each run: between them
// the runs take every chunk shape of the vector path — 4+4+1, 4+4, 4+2+1,
// 4+2, 4+1, 4, 2+1, 2 and 1.
func groupLengths() *CSR {
	n := 3 + 3*9*10/2 + 9 + 5
	rng := rand.New(rand.NewSource(19))
	b := NewBuilder(n, n)
	i := 0
	for ; i < 3; i++ {
		b.Add(i, i, 1)
	}
	for groups := 1; groups <= 9; groups++ {
		for g := 0; g < groups; g, i = g+1, i+3 {
			for r := 0; r < 3; r++ {
				for _, o := range []int{-2, 0, 1, 2, 4} {
					b.Add(i+r, i+o, rng.NormFloat64())
				}
			}
		}
		b.Add(i, i, 1)
		i++
	}
	for ; i < n; i++ {
		b.Add(i, i, 1)
	}
	return b.Build()
}

// tailPatterns builds a matrix whose period-1 rows left over by the chunks
// fall into offset patterns of every size 1…9 rows: pattern c couples columns
// i−1, i and i+c+1, and its c rows are ⌈c/2⌉ single-row runs followed by the
// one to three rows left after the 4-row chunk of runs of 5 to 7 rows. A
// diagonal-only row follows every run. Four single rows of one more pattern,
// columns i and i+far, reach the last column, as does the closing run of 12
// diagonal-only rows: a bounds proof against one column fewer rejects exactly
// that pattern's quad and that run.
func tailPatterns() *CSR {
	type segment struct{ c, rows int } // pattern c (0: far), run length
	var segs []segment
	for r := 0; r < 4; r++ {
		segs = append(segs, segment{0, 1})
	}
	for c := 1; c <= 9; c++ {
		single := (c + 1) / 2
		for r := 0; r < single; r++ {
			segs = append(segs, segment{c, 1})
		}
		for rest := c - single; rest > 0; rest -= min(rest, 3) {
			segs = append(segs, segment{c, bandUnroll + min(rest, 3)})
		}
	}
	n := 1 + 11
	for _, sg := range segs {
		n += sg.rows + 1
	}
	far := n - 1 - 7 // the fourth far row is row 7
	rng := rand.New(rand.NewSource(23))
	b := NewBuilder(n, n)
	b.Add(0, 0, 1)
	i := 1
	for _, sg := range segs {
		for r := 0; r < sg.rows; r, i = r+1, i+1 {
			cols := []int{i - 1, i, i + sg.c + 1}
			if sg.c == 0 {
				cols = []int{i, i + far}
			}
			for _, c := range cols {
				b.Add(i, c, rng.NormFloat64())
			}
		}
		b.Add(i, i, 1)
		i++
	}
	for ; i < n; i++ {
		b.Add(i, i, 1)
	}
	return b.Build()
}

// bandPaths runs f once per way the band layout can multiply on this
// platform: through the vector routine where there is one, and through the
// portable loops — what every other platform runs.
func bandPaths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	defer func(v bool) { bandVector = v }(bandVector)
	if bandVector {
		t.Run("vector", f)
	}
	bandVector = false
	t.Run("portable", f)
}

// mmSample is a tiny Matrix Market general matrix with ragged rows.
const mmSample = `%%MatrixMarket matrix coordinate real general
6 6 9
1 1 2.5
1 4 -1.0
2 2 3.0
3 1 -0.5
3 3 1.5
3 6 0.25
5 5 4.0
6 2 -0.75
6 6 2.0
`

// kernelMatrices enumerates the property-test inputs: stencil, dof-blocked
// stencils (period-2, -3 and -4 band runs), random, ragged (empty rows
// included), and Matrix-Market-parsed.
func kernelMatrices(t testing.TB) map[string]*CSR {
	t.Helper()
	mm, err := ReadMatrixMarket(strings.NewReader(mmSample))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*CSR{
		"stencil27-6":      stencil27(6),
		"stencil27-5-dof2": stencilDof(5, 5, 5, 2, 2),
		"stencil27-5-dof3": stencilDof(5, 5, 5, 3, 3),
		"stencil27-5-dof4": stencilDof(5, 5, 5, 4, 4),
		"random-80":        randomSparse(80, 6, 7),
		"ragged-97":        raggedSparse(97, 3),
		"matrixmarket":     mm,
		"runs-1to17":       runLengths(),
		"groups-1to9":      groupLengths(),
		"tails-1to9":       tailPatterns(),
	}
}

// TestKernelsBitwiseIdentical is the kernel-format property test: for every
// matrix class, every row split (including the single-node g=0 halo case),
// every kernel kind and both band paths, Mul/MulInterior/MulBoundary must
// reproduce the scalar CSR traversal bit for bit — the invariant that keeps
// solver trajectories independent of the storage layout and of the platform.
// Each case runs on an x of ordinary values and signed zeros and on one that
// also holds NaN and both infinities, and with x and dst starting one element
// into their arrays, so the vector loads and stores see both alignments.
func TestKernelsBitwiseIdentical(t *testing.T) {
	kinds := []KernelKind{KernelAuto, KernelCSR, KernelBand}
	for name, a := range kernelMatrices(t) {
		splits := [][2]int{{0, a.Rows}} // single node: no ghosts at all
		third := a.Rows / 3
		if third > 0 {
			splits = append(splits, [2]int{0, third}, [2]int{third, 2 * third}, [2]int{2 * third, a.Rows})
		}
		for _, sp := range splits {
			l := localOf(t, a, sp[0], sp[1])
			for _, kind := range kinds {
				t.Run(fmt.Sprintf("%s/rows%d-%d/%v", name, sp[0], sp[1], kind), func(t *testing.T) {
					bandPaths(t, func(t *testing.T) {
						k := BuildKernel(l, kind)
						for _, special := range []bool{false, true} {
							x := kernelInput(l, int64(sp[0])+99, special)
							checkKernel(t, l, k, x, 0)
							checkKernel(t, l, k, append([]float64{0}, x...)[1:], 1)
						}
					})
				})
			}
		}
	}
}

// kernelInput fills an x for l with normal deviates and signed zeros:
// padding or reordering bugs show up exactly where -0.0 partial sums get
// normalized to +0.0. special adds NaN and ±Inf, which must come out of every
// layout in the same rows.
func kernelInput(l *Local, seed int64, special bool) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, l.M+l.G())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	if len(x) > 2 {
		x[0], x[len(x)/2] = math.Copysign(0, -1), math.Copysign(0, -1)
	}
	if special {
		for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)} {
			for j := 3 + 5*i; j < len(x); j += 23 {
				x[j] = v
			}
		}
	}
	return x
}

// sameBits compares two results bit for bit, except that any NaN equals any
// NaN: which of two NaN operands an addition returns depends on the order the
// compiler gave them, and that already differs between the rows of one Go
// loop (Inf − Inf and a NaN from x carry different bits).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}

// checkKernel compares k's three products on x against the Local's scalar
// CSR traversal; dst starts shift elements into its array.
func checkKernel(t *testing.T, l *Local, k Kernel, x []float64, shift int) {
	t.Helper()
	ops := []struct {
		name      string
		got, want func(dst, x []float64)
	}{
		{"Mul", k.Mul, l.Mul},
		{"MulInterior", k.MulInterior, l.MulInterior},
		{"MulBoundary", k.MulBoundary, l.MulBoundary},
	}
	for _, op := range ops {
		want := make([]float64, l.M)
		op.want(want, x)
		got := make([]float64, l.M+shift)[shift:]
		op.got(got, x)
		for i := range got {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("%s (%s, x and dst %d into their arrays): row %d = %x, csr %x", op.name, k.Name(), shift, i,
					math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
	if k.NNZ() != l.NNZ() || k.InteriorNNZ() != l.InteriorNNZ() || k.BoundaryNNZ() != l.BoundaryNNZ() {
		t.Fatalf("%s: nnz accounting (%d,%d,%d) != local (%d,%d,%d)", k.Name(),
			k.NNZ(), k.InteriorNNZ(), k.BoundaryNNZ(), l.NNZ(), l.InteriorNNZ(), l.BoundaryNNZ())
	}
}

// TestBandChunkShapes: the run-length matrix really reaches every chunk shape
// of the vector path, so TestKernelsBitwiseIdentical covers them all.
func TestBandChunkShapes(t *testing.T) {
	if !bandVector {
		t.Skip("no vector band routine on this platform")
	}
	a := runLengths()
	l := localOf(t, a, 0, a.Rows) // one node, no ghosts: every row is interior
	b := newBandRows(l, l.InteriorRows)
	type shape struct{ n8, n4, tail int }
	seen := map[shape]bool{}
	for _, rn := range b.runs {
		if n := rn.i1 - rn.i0; rn.d == 1 && len(rn.off) == 3 {
			if (rn.vt >= 0) != (n >= bandUnroll) {
				t.Fatalf("run of %d rows: chunk offset %d", n, rn.vt)
			}
			seen[shape{n / 8, n / 4 % 2, n % 4}] = true
		}
	}
	for n := 1; n <= 17; n++ {
		if sh := (shape{n / 8, n / 4 % 2, n % 4}); !seen[sh] {
			t.Errorf("no run of %d rows (chunks %+v)", n, sh)
		}
	}
}

// TestBandGroupShapes: the group-length matrix's period-3 runs are all on the
// vector path and reach every chunk shape of it (quads, then at most one
// pair, then at most one single group), so TestKernelsBitwiseIdentical covers
// them all.
func TestBandGroupShapes(t *testing.T) {
	if !bandVector {
		t.Skip("no vector band routine on this platform")
	}
	a := groupLengths()
	l := localOf(t, a, 0, a.Rows)
	b := newBandRows(l, l.InteriorRows)
	type shape struct{ n4, n2, n1 int }
	seen := map[shape]bool{}
	for _, rn := range b.runs {
		if rn.d != 3 {
			continue
		}
		if g := (rn.i1 - rn.i0) / 3; rn.vt < 0 || len(rn.off) != 5 {
			t.Errorf("run of %d groups at row %d: %d offsets, group offset %d", g, rn.i0, len(rn.off), rn.vt)
		} else {
			seen[shape{g / 4, g / 2 % 2, g % 2}] = true
		}
	}
	for g := 1; g <= 9; g++ {
		if sh := (shape{g / 4, g / 2 % 2, g % 2}); !seen[sh] {
			t.Errorf("no run of %d groups (chunks %+v)", g, sh)
		}
	}
}

// gatherRoutes splits the left-over period-1 rows of b by offset pattern
// into the rows its quads gather and the rows the portable loop keeps, and
// reports for every gathered row the length of the run it comes from.
func gatherRoutes(t *testing.T, b *bandRows) (gathered, scalar map[string]int, runOf map[int]int) {
	t.Helper()
	gathered, scalar, runOf = map[string]int{}, map[string]int{}, map[int]int{}
	in := map[int]*bandRun{}
	for ri := range b.runs {
		rn := &b.runs[ri]
		for i := rn.i0; i < rn.i1; i++ {
			in[i] = rn
		}
		if rn.d == 1 && (rn.vt >= 0 || rn.i1-rn.i0 < bandUnroll) {
			scalar[fmt.Sprint(rn.off)] += rn.i1 - rn.rest
		}
	}
	for g := b.quads; len(g) > 0; g = g[2+g[1]*bandUnroll:] {
		pattern := fmt.Sprint(b.runs[g[0]].off)
		rows := g[2 : 2+g[1]*bandUnroll]
		for k, i := range rows {
			rn := in[i]
			if rn == nil || fmt.Sprint(rn.off) != pattern || k > 0 && i <= rows[k-1] {
				t.Fatalf("quad rows %v of pattern %s: row %d not in an ascending run of that pattern", rows, pattern, i)
			}
			if i >= rn.rest || i < rn.i0+(rn.i1-rn.i0)/bandUnroll*bandUnroll && rn.vt >= 0 {
				t.Fatalf("row %d of run [%d,%d) rest %d: gathered and also multiplied elsewhere", i, rn.i0, rn.i1, rn.rest)
			}
			runOf[i] = rn.i1 - rn.i0
		}
		gathered[pattern] += len(rows)
	}
	return gathered, scalar, runOf
}

// TestBandGatherShapes: the tail-pattern matrix's left-over rows reach every
// quad count of its patterns of 1…9 rows, with 0…3 rows left to the portable
// loop, the quads holding rows of single-row runs and rows after a run's
// chunk and splitting some run's left-over rows between a quad and the loop; a
// pattern whose quad fails the bounds proof keeps all its rows on the loop,
// and the block still multiplies bit for bit like the CSR traversal.
func TestBandGatherShapes(t *testing.T) {
	if !bandVector {
		t.Skip("no vector band routine on this platform")
	}
	a := tailPatterns()
	l := localOf(t, a, 0, a.Rows)
	cols := l.M + l.G()
	far := fmt.Sprint([]int{0, cols - 1 - 7})
	pattern := func(c int) string { return fmt.Sprint([]int{-1, 0, c + 1}) }
	check := func(name string, b *bandRows, farGathered int) {
		gathered, scalar, runOf := gatherRoutes(t, b)
		for c := 1; c <= 9; c++ {
			if g, s := gathered[pattern(c)], scalar[pattern(c)]; g != c/4*4 || s != c%4 {
				t.Errorf("%s: pattern of %d rows: %d gathered, %d on the loop; want %d, %d", name, c, g, s, c/4*4, c%4)
			}
		}
		if g, s := gathered[far], scalar[far]; g != farGathered || s != 4-farGathered {
			t.Errorf("%s: far pattern: %d gathered, %d on the loop; want %d, %d", name, g, s, farGathered, 4-farGathered)
		}
		single, after := 0, 0
		for _, n := range runOf {
			if n == 1 {
				single++
			} else {
				after++
			}
		}
		split := false
		for _, rn := range b.runs {
			split = split || rn.i1-rn.i0 > bandUnroll && rn.vt >= 0 && rn.rest > rn.i0+bandUnroll && rn.rest < rn.i1
		}
		if single == 0 || after == 0 || !split {
			t.Errorf("%s: quads hold %d rows of single-row runs and %d left after a chunk; a run split between a quad and the loop: %v",
				name, single, after, split)
		}
		for _, special := range []bool{false, true} {
			x := kernelInput(l, 13, special)
			want := make([]float64, l.M)
			l.Mul(want, x)
			got := make([]float64, l.M)
			b.mul(got, x)
			for i := range got {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("%s: row %d = %x, csr %x", name, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
	check("proof holds", newBandRows(l, l.InteriorRows), 4)

	b := findBandRuns(l, l.InteriorRows)
	b.transpose(l, cols-1) // one column short: the far rows and the closing run reach it
	for _, rn := range b.runs {
		if rn.i1 == l.M && rn.vt >= 0 {
			t.Errorf("closing run [%d,%d) transposed past the proof", rn.i0, rn.i1)
		}
	}
	check("proof fails for the far pattern", b, 0)
}

// TestBandMulStoresOnlyItsRows: a block writes its own rows and no others.
// The vector routines store a lane only where it holds a row of the run — a
// period-3 group stores three of its register's four, a quad scatters its
// four lanes to its four rows — so sentinels in the rows of the other block,
// and in the row right after every run (dst[i1]), survive a mul.
func TestBandMulStoresOnlyItsRows(t *testing.T) {
	sentinel := math.Float64frombits(0x7ff4_dead_0000_beef) // a NaN no sum produces
	// Every row but the diagonal-only ones, so the row after each run is
	// outside the block.
	noSeparators := func(a *CSR) []int {
		var rows []int
		for i := 0; i < a.Rows; i++ {
			if a.RowPtr[i+1]-a.RowPtr[i] > 1 {
				rows = append(rows, i)
			}
		}
		return rows
	}
	groups, tails := groupLengths(), tailPatterns()
	gl, tl := localOf(t, groups, 0, groups.Rows), localOf(t, tails, 0, tails.Rows)
	sl := localOf(t, stencilDof(5, 5, 5, 3, 3), 75, 290) // ends inside a vertex: halos both sides
	pl := localOf(t, stencil27(8), 128, 384)             // four planes: halos both sides
	blocks := []struct {
		name  string
		l     *Local
		rows  []int
		quads bool // on the vector path, some rows are gathered
	}{
		{"dof3/interior", sl, sl.InteriorRows, false},
		{"dof3/boundary", sl, sl.BoundaryRows, false},
		{"groups-1to9/no-separators", gl, noSeparators(groups), false},
		{"tails-1to9/no-separators", tl, noSeparators(tails), true},
		{"slab/interior", pl, pl.InteriorRows, true},
		{"slab/boundary", pl, pl.BoundaryRows, true},
	}
	bandPaths(t, func(t *testing.T) {
		for _, bl := range blocks {
			b := newBandRows(bl.l, bl.rows)
			if len(bl.rows) == 0 || len(b.runs) == 0 {
				t.Fatalf("%s: empty block", bl.name)
			}
			if bl.quads && bandVector && len(b.quads) == 0 {
				t.Fatalf("%s: no quad gathered", bl.name)
			}
			mine := make([]bool, bl.l.M+1)
			for _, i := range bl.rows {
				mine[i] = true
			}
			dst := make([]float64, bl.l.M+1)
			for i := range dst {
				dst[i] = sentinel
			}
			b.mul(dst[:bl.l.M], kernelInput(bl.l, 5, true))
			for i, v := range dst {
				if !mine[i] && math.Float64bits(v) != math.Float64bits(sentinel) {
					t.Errorf("%s: row %d outside the block written: %x", bl.name, i, math.Float64bits(v))
				}
			}
		}
	})
}

// TestBandMulChecksLengths: the vector routines check no bounds, so a short x
// or dst must be refused in Go before they run — by the explicit check at
// exactly the lengths the transposed runs and quads need, and for anything
// shorter than the whole block by that check or the portable loops' own index
// checks. A block whose every run is transposed (period 3) multiplies at
// exactly those lengths, and writes nothing past them; in a block whose
// largest x index is read by a gathered row, the quads' proof sets xlen.
func TestBandMulChecksLengths(t *testing.T) {
	l := localOf(t, stencil27(6), 72, 144)
	x := make([]float64, l.M+l.G())
	dst := make([]float64, l.M)
	panics := func(f func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return
	}
	short := func(t *testing.T, name string, b *bandRows, dst, x []float64) {
		t.Helper()
		if b.xlen == 0 || b.dlen == 0 || b.xlen > len(x) || b.dlen > len(dst) {
			t.Fatalf("%s: transposed runs need x[:%d], dst[:%d] of x[:%d], dst[:%d]", name, b.xlen, b.dlen, len(x), len(dst))
		}
		if msg := panics(func() { b.mul(dst, x[:b.xlen-1]) }); !strings.Contains(msg, "band kernel needs") {
			t.Errorf("%s: x one short of the transposed runs: %s", name, msg)
		}
		if msg := panics(func() { b.mul(dst[:b.dlen-1], x) }); !strings.Contains(msg, "band kernel needs") {
			t.Errorf("%s: dst one short of the transposed runs: %s", name, msg)
		}
	}
	// Three grid planes of a dof-3 stencil: the interior block is the middle
	// plane, which reads neither the halo nor the last owned rows.
	gl := localOf(t, stencilDof(6, 6, 6, 3, 6), 216, 540)
	gx := kernelInput(gl, 7, false)
	tails := tailPatterns()
	tl := localOf(t, tails, 0, tails.Rows)
	bandPaths(t, func(t *testing.T) {
		k := BuildKernel(l, KernelBand).(*planned)
		if msg := panics(func() { k.Mul(dst, x[:len(x)-1]) }); msg == "<nil>" {
			t.Error("Mul accepted an x one short of M+G")
		}
		if msg := panics(func() { k.Mul(dst[:len(dst)-1], x) }); msg == "<nil>" {
			t.Error("Mul accepted a dst one short of M")
		}
		if !bandVector {
			return
		}
		short(t, "period 1", k.boundary.(*bandRows), dst, x) // every row reads a halo

		b := newBandRows(gl, gl.InteriorRows)
		for _, rn := range b.runs {
			if rn.d != 3 || rn.vt < 0 {
				t.Fatalf("run [%d,%d) of period %d, group offset %d: want every run period 3 and transposed", rn.i0, rn.i1, rn.d, rn.vt)
			}
		}
		xlen, dlen := 0, 0 // one past the last column and row the block touches
		for _, i := range gl.InteriorRows {
			cols, _ := gl.Row(i)
			for _, c := range cols {
				xlen = max(xlen, c+1)
			}
			dlen = max(dlen, i+1)
		}
		if b.xlen != xlen || b.dlen != dlen {
			t.Fatalf("period 3: proof gives x[:%d], dst[:%d]; the rows touch x[:%d], dst[:%d]", b.xlen, b.dlen, xlen, dlen)
		}
		want := make([]float64, gl.M)
		gl.MulInterior(want, gx)
		got := make([]float64, gl.M+1)
		got[b.dlen] = 42
		poisoned := append([]float64(nil), gx...) // a read past x[:xlen] shows as NaN
		for i := b.xlen; i < len(poisoned); i++ {
			poisoned[i] = math.NaN()
		}
		b.mul(got[:b.dlen], poisoned[:b.xlen])
		for _, i := range gl.InteriorRows {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("period 3 at x[:%d], dst[:%d]: row %d = %v, csr %v", b.xlen, b.dlen, i, got[i], want[i])
			}
		}
		if got[b.dlen] != 42 {
			t.Errorf("period 3: dst[%d], one past dst, overwritten with %v", b.dlen, got[b.dlen])
		}
		short(t, "period 3", b, got[:gl.M], gx)

		// The tail patterns without their closing run: the last column is
		// read by a far row only, which a quad gathers.
		tb := newBandRows(tl, tl.InteriorRows[:tl.M-12])
		runReach := 0
		for _, rn := range tb.runs {
			if rn.vt >= 0 {
				_, hi := bounds(rn.off)
				runReach = max(runReach, rn.i1-rn.d+hi+1)
			}
		}
		quadReach := 0
		for g := tb.quads; len(g) > 0; g = g[2+g[1]*bandUnroll:] {
			_, hi := bounds(tb.runs[g[0]].off)
			quadReach = max(quadReach, g[1+g[1]*bandUnroll]+hi+1)
		}
		if tb.xlen != quadReach || tb.xlen != tl.M+tl.G() || runReach >= tb.xlen {
			t.Fatalf("gathered: proof gives x[:%d]; quads reach x[:%d], transposed runs x[:%d], the block x[:%d]",
				tb.xlen, quadReach, runReach, tl.M+tl.G())
		}
		short(t, "gathered", tb, make([]float64, tl.M), kernelInput(tl, 3, false))
	})
}

// TestKernelPlannerPicksBandForStencil pins the planner's headline decision:
// a stencil slab's interior rows go to the band layout, a ragged matrix's
// blocks stay on scalar CSR rows (the Local itself), and the forced kinds
// report their own names.
func TestKernelPlannerPicksBandForStencil(t *testing.T) {
	a := stencil27(8)
	l := localOf(t, a, 128, 384) // an interior slab with halo on both sides
	if name := BuildKernel(l, KernelAuto).Name(); !strings.Contains(name, "band") {
		t.Fatalf("planner chose %q for a 27-point stencil slab, want a band interior", name)
	}
	if name := BuildKernel(l, KernelCSR).Name(); name != "csr" {
		t.Fatalf("forced csr reports %q", name)
	}
	if name := BuildKernel(l, KernelBand).Name(); name != "band" {
		t.Fatalf("forced band reports %q", name)
	}
	irregular := raggedSparse(97, 3)
	li := localOf(t, irregular, 0, 97)
	if k := BuildKernel(li, KernelAuto); k != Kernel(li) {
		t.Fatalf("planner chose %q for a ragged matrix, want the Local itself: band runs cannot dominate there", k.Name())
	}
}

// TestBandRoutesOnRankShapes pins which rows of the benchmark workloads'
// rank shapes take which band route — the twin of dense's
// TestSolveAllRoutesOnRankShapes. Per block of the planned kernel: rows in a
// run's chunks or groups, rows gathered into quads, rows left to the portable
// loop. A z-line of the 24³ stencil leaves four rows to gather, its two end
// rows and the two after its run's chunks; they group by the offset pattern
// their grid position gives them. A block the planner does not give the band
// layout wants {0, 0, 0}.
func TestBandRoutesOnRankShapes(t *testing.T) {
	if !bandVector {
		t.Skip("no vector band routine on this platform")
	}
	routes := func(blk blockMul) (r [3]int) {
		b, ok := blk.(*bandRows)
		if !ok {
			return r
		}
		rows := 0
		for _, rn := range b.runs {
			rows += rn.i1 - rn.i0
			if lanes, groups := rn.vectorGroups(); rn.vt >= 0 {
				r[0] += groups * min(lanes, rn.d)
			}
		}
		for g := b.quads; len(g) > 0; g = g[2+g[1]*bandUnroll:] {
			r[1] += g[1] * bandUnroll
		}
		r[2] = rows - r[0] - r[1]
		return r
	}
	for _, c := range []struct {
		name               string
		a                  *CSR
		lo, hi             int
		interior, boundary [3]int // chunked, gathered, portable rows
	}{
		{"solve-fat/rank0", stencil27(24), 0, 3456, [3]int{2400, 468, 12}, [3]int{480, 84, 12}},
		{"solve-fat/rank1", stencil27(24), 3456, 6912, [3]int{1920, 384, 0}, [3]int{960, 168, 24}},
		{"solve-wide/rank64", stencilGrid(16, 16, 32), 64 * 37, 64 * 38, [3]int{}, [3]int{56, 0, 8}},
		{"recovery-storm/rank375x3", stencilDof(10, 10, 10, 3, 1), 1125, 1500, [3]int{}, [3]int{375, 0, 0}},
	} {
		k := BuildKernel(localOf(t, c.a, c.lo, c.hi), KernelAuto)
		p, ok := k.(*planned)
		if !ok {
			t.Fatalf("%s: planner chose %s, want a band block", c.name, k.Name())
		}
		if got := routes(p.interior); got != c.interior {
			t.Errorf("%s interior (%s): chunked, gathered, portable rows %v, want %v", c.name, p.interior.name(), got, c.interior)
		}
		if got := routes(p.boundary); got != c.boundary {
			t.Errorf("%s boundary (%s): chunked, gathered, portable rows %v, want %v", c.name, p.boundary.name(), got, c.boundary)
		}
	}
}

// entryBytes is what one stored entry streams through the CPU in each layout:
// its value, plus CSR's column index (Local.Cols is []int). The band layout
// loads no per-entry index.
var entryBytes = map[string]int{"csr": 16, "band": 8}

func kernelBytes(k Kernel) int64 {
	if p, ok := k.(*planned); ok {
		return int64(entryBytes[p.interior.name()]*p.interior.nnz() + entryBytes[p.boundary.name()]*p.boundary.nnz())
	}
	return int64(entryBytes["csr"] * k.NNZ())
}

// BenchmarkKernelMul measures the raw local product per layout — the
// arithmetic floor the planner converts into solve wall-clock — on a 6 912-row
// slab of a 24³ stencil (two solve-fat ranks' rows as one block: long interior
// runs) and on the rank shapes of the benchmark's three solve workloads: one
// of 4 ranks of that stencil (solve-fat: 3 456 rows, halo on both sides), one
// of 128 ranks of a 16×16×32 grid (solve-wide: 64 rows, two grid lines, every
// row reads a halo), and one of 8 ranks of a 3-dof stencil on 10³ vertices
// (recovery-storm: 375 rows in period-3 runs of 1 to 8 groups).
func BenchmarkKernelMul(b *testing.B) {
	for _, c := range []struct {
		name   string
		a      *CSR
		lo, hi int
	}{
		{"slab6912", stencil27(24), 3456, 10368},
		{"rank3456", stencil27(24), 3456, 6912},
		{"rank64", stencilGrid(16, 16, 32), 64 * 37, 64 * 38},
		{"rank375x3", stencilDof(10, 10, 10, 3, 1), 1125, 1500},
	} {
		l := localOf(b, c.a, c.lo, c.hi)
		x := make([]float64, l.M+l.G())
		for i := range x {
			x[i] = float64(i%17) * 0.25
		}
		dst := make([]float64, l.M)
		run := func(name string, k Kernel) {
			b.Run(c.name+"/"+name, func(b *testing.B) {
				b.SetBytes(kernelBytes(k))
				for i := 0; i < b.N; i++ {
					k.Mul(dst, x)
				}
			})
		}
		for _, kind := range []KernelKind{KernelCSR, KernelBand, KernelAuto} {
			run(kind.String(), BuildKernel(l, kind))
		}
		if bandVector { // what platforms without the vector routine run
			bandVector = false
			k := BuildKernel(l, KernelBand)
			bandVector = true
			run("band-portable", k)
		}
	}
}
