package sparse

import (
	"fmt"
	"slices"

	"esrp/internal/cpu"
)

// bandUnroll is the row unroll width of the period-1 band loop: four
// consecutive rows share one pass over the offset pattern, with four
// independent accumulators and x loads that land on adjacent entries. It is
// also the lane count of one vector register of the chunked path, which
// walks 2·bandUnroll rows per step and then at most one bandUnroll-row chunk.
const bandUnroll = 4

// bandVector reports whether period-1 and period-3 runs are additionally
// stored transposed and multiplied by the platform's vector routines
// (band_amd64.s). The platform decides, once; tests flip it before building a
// kernel to send the same rows through the portable loops.
var bandVector = cpu.AVX

// bandGroupPeriod is the one period > 1 the vector path takes: the dof count
// of every dof-blocked input the tools generate (AudikwLike's 3). A group of
// its rows fills three lanes of a vector register; other periods keep the
// portable loops.
const bandGroupPeriod = 3

// bandMaxPeriod caps the detected pattern period (the dof count of blocked
// stencil matrices; audikw-class problems use 3). It also bounds the
// accumulator array of the periodic loop.
const bandMaxPeriod = 8

// bandRun is a maximal sequence of consecutive local rows [i0,i1) whose
// compact column indices follow one offset pattern with period d: the d rows
// of a group share identical columns, and each group's columns are the
// previous group's shifted by d —
//
//	cols(i) = (i0 + d·⌊(i−i0)/d⌋) + off,  entry for entry, source order.
//
// d = 1 is the scalar stencil (Emilia-class): every row shifts by one.
// d = dof covers vertex-blocked stencils (audikw-class), where the dof rows
// of a vertex couple the same columns. Stencil interiors are almost
// entirely such runs; a run's values are contiguous in the Local's CSR
// storage, so the portable loops stream them without copying.
type bandRun struct {
	i0, i1 int
	d      int   // pattern period (≥ 1); i1−i0 is a multiple of d
	base   int   // offset of row i0's first entry in the Local's Vals
	off    []int // column offsets relative to the group base, source order
	vt     int   // offset of the run's transposed values in bandRows.vt, −1 if none
	rest   int   // first row the portable loops multiply (period 1 only)
}

// bandRows is the constant-band layout of one row block: the block's rows
// decomposed into periodic shifted-pattern runs. Within a run the column of
// entry k is groupBase+off[k] — no per-entry index loads; the period-1 loop
// reuses each offset across four rows, the period-d loop additionally loads
// each x entry once per group instead of once per row. Rows that fit no run
// form single-row runs; the planner only picks this layout when long runs
// dominate.
//
// Where bandVector holds, the first ⌊n/4⌋·4 rows of every period-1 run of
// n ≥ 4 rows are also kept chunk-transposed in vt — chunks of 8 rows, then at
// most one of 4, each laid out [entry k][lane] — and so is every period-3 run,
// group-transposed: chunks of 4 groups, then at most one of 2, then at most
// one single group, each laid out [entry k][group][lane], lane = row within
// the group, the fourth lane a zero pad. The period-1 rows left over — the
// n mod 4 rows after a run's chunks and the rows of runs shorter than 4 — are
// gathered by offset pattern: every four rows of one pattern, wherever they
// sit, form a quad, its values laid out [entry k][lane] after the runs' in vt
// and its rows listed in quads. Either way one vector lane per row advances
// that row's own accumulator through the row's entries in source order: the
// same products and sums as the portable loops, several rows per
// instruction. The routines have no bounds checks; transpose proves every
// index a transposed run or a quad touches lies below xlen (in x) and dlen
// (in dst), and mul checks those two lengths once per call.
type bandRows struct {
	vals       []float64 // the Local's value storage (shared, read-only)
	vt         []float64 // transposed values, one arena for all runs and quads
	xlen, dlen int       // len(x), len(dst) the transposed runs and quads need
	runs       []bandRun
	nz         int
	// quads lists the gathered rows, one record per offset pattern that has
	// any: the index of a run with that pattern, the quad count q, then the
	// 4·q rows, quad after quad. The quads' values follow the runs' in vt,
	// from qvt on, in the same order.
	quads []int
	qvt   int
}

// findBandRuns decomposes the rows into runs — all the planner needs to
// judge the layout, and all the portable loops need to multiply. Every run's
// offsets are carved from one arena: count, allocate once, fill.
func findBandRuns(l *Local, rows []int) *bandRows {
	b := &bandRows{vals: l.Vals}
	width := 0
	for t := 0; t < len(rows); {
		i0 := rows[t]
		cols, _ := l.Row(i0)
		// Period: 1 + the consecutive rows whose columns equal row i0's.
		d := 1
		for t+d < len(rows) && d < bandMaxPeriod &&
			rows[t+d] == i0+d && colsEqualShifted(l, rows[t+d], cols, 0) {
			d++
		}
		// Extend by whole groups: group g is d consecutive rows whose
		// columns are cols(i0) shifted by g·d.
		groups := 1
		for {
			gt := t + groups*d
			base := groups * d
			ok := gt+d <= len(rows)
			for r := 0; ok && r < d; r++ {
				ok = rows[gt+r] == i0+base+r && colsEqualShifted(l, rows[gt+r], cols, base)
			}
			if !ok {
				break
			}
			groups++
		}
		run := bandRun{i0: i0, i1: i0 + groups*d, d: d, base: l.RowPtr[i0], vt: -1, rest: i0}
		width += len(cols)
		b.nz += (run.i1 - run.i0) * len(cols)
		b.runs = append(b.runs, run)
		t += groups * d
	}
	offs := make([]int, width)
	for ri := range b.runs {
		rn := &b.runs[ri]
		cols, _ := l.Row(rn.i0)
		rn.off, offs = offs[:len(cols)], offs[len(cols):]
		for k, c := range cols {
			rn.off[k] = c - rn.i0
		}
	}
	return b
}

// vectorGroups reports how much of the run the vector routines take: lanes
// per group and the number of groups. At period 1 every row is a group of
// one lane and the routine takes the run's whole chunks of 4 rows; at
// bandGroupPeriod a group fills three of a register's four lanes and the
// routine takes them all. 0 groups leaves the run to the portable loops.
func (rn *bandRun) vectorGroups() (lanes, groups int) {
	n := rn.i1 - rn.i0
	switch {
	case len(rn.off) == 0:
	case rn.d == 1:
		return 1, n / bandUnroll * bandUnroll
	case rn.d == bandGroupPeriod:
		return bandUnroll, n / bandGroupPeriod
	}
	return 0, 0
}

// transpose, where the platform has the vector routines, lays out the
// vector-path rows of every eligible run, then the quads gathered from the
// rows they leave over, in one arena: count, allocate once, fill. A run is
// eligible when vectorGroups takes any of it and every column it references
// lies in [0, cols) — i0 + min(off) ≥ 0 and, from the first row of its last
// group, i1 − d + max(off) < cols — which a well-formed Local guarantees and
// which is checked here because the vector routines will not check it again;
// gather proves the same of its quads.
func (b *bandRows) transpose(l *Local, cols int) {
	if !bandVector {
		return
	}
	size := 0
	for ri := range b.runs {
		rn := &b.runs[ri]
		lanes, groups := rn.vectorGroups()
		if groups == 0 {
			continue
		}
		lo, hi := bounds(rn.off)
		last := rn.i1 - rn.d
		if rn.i0+lo < 0 || last+hi >= cols {
			continue
		}
		rn.vt = size
		size += groups * lanes * len(rn.off)
		b.xlen = max(b.xlen, last+hi+1)
		b.dlen = max(b.dlen, rn.i1)
		if rn.d == 1 {
			rn.rest = rn.i0 + groups
		}
	}
	b.qvt = size
	size += b.gather(cols)
	if size == 0 {
		return
	}
	b.vt = make([]float64, size)
	for ri := range b.runs {
		rn := &b.runs[ri]
		if rn.vt < 0 {
			continue
		}
		// Chunks of the widest register set first, halving: period 1 takes
		// 8 rows then 4, bandGroupPeriod 4 groups then 2 then 1. Row r of a
		// chunk of c groups sits in lane r mod d of group ⌊r/d⌋; its entry k
		// at out[k·c·lanes + ⌊r/d⌋·lanes + r mod d]. Pad lanes stay zero.
		lanes, groups := rn.vectorGroups()
		widest := bandUnroll
		if rn.d == 1 {
			widest = 2 * bandUnroll
		}
		d, w := rn.d, len(rn.off)
		src, out := b.vals[rn.base:], b.vt[rn.vt:]
		for c := widest; groups > 0; groups -= c {
			for c > groups {
				c /= 2
			}
			for r := 0; r < c*d; r++ {
				slot := r/d*lanes + r%d
				for k, v := range src[r*w : (r+1)*w] {
					out[k*c*lanes+slot] = v
				}
			}
			src, out = src[c*d*w:], out[c*lanes*w:]
		}
	}
	// Quads: row q of a quad in lane q, its entry k at out[4k + q].
	out := b.vt[b.qvt:]
	for g := b.quads; len(g) > 0; {
		w, rows := len(b.runs[g[0]].off), g[2:2+g[1]*bandUnroll]
		for len(rows) > 0 {
			for q, r := range rows[:bandUnroll] {
				for k, v := range b.vals[l.RowPtr[r] : l.RowPtr[r]+w] {
					out[k*bandUnroll+q] = v
				}
			}
			rows, out = rows[bandUnroll:], out[bandUnroll*w:]
		}
		g = g[2+g[1]*bandUnroll:]
	}
}

// gather groups the period-1 rows the chunks leave over by offset pattern
// and lists every four rows of a pattern as a quad in b.quads, returning the
// number of transposed values the quads need. A pattern's c rows are taken in
// ascending order and the first ⌊c/4⌋·4 form its quads, so the gathered rows
// of each run are the first of its left-over rows and its rest steps past
// them; the c mod 4 after them stay on the portable loop. So does every row of
// a pattern whose quads fail the bounds proof (first row + min(off) ≥ 0, last
// gathered row + max(off) < cols).
//
// One []int holds the quads' records at its front and, as scratch, the
// indices of the runs with left-over rows at its end. The records take at
// most rows + 2·⌊rows/4⌋ ints (4·q rows and a two-int header per pattern with
// q ≥ 1), so they never reach the scratch.
func (b *bandRows) gather(cols int) int {
	runs, rows := 0, 0
	for ri := range b.runs {
		if n := b.runs[ri].leftOver(); n > 0 {
			runs++
			rows += n
		}
	}
	if rows < bandUnroll {
		return 0
	}
	arena := make([]int, rows+2*(rows/bandUnroll)+runs)
	sorted := arena[len(arena)-runs:]
	runs = 0
	for ri := range b.runs {
		if b.runs[ri].leftOver() > 0 {
			sorted[runs] = ri
			runs++
		}
	}
	// By pattern, then by position: equal patterns end up adjacent, each
	// pattern's runs ascending.
	slices.SortFunc(sorted, func(p, q int) int {
		if c := slices.Compare(b.runs[p].off, b.runs[q].off); c != 0 {
			return c
		}
		return p - q
	})
	size, n := 0, 0
	for len(sorted) > 0 {
		off := b.runs[sorted[0]].off
		same, c := 0, 0
		for ; same < len(sorted) && slices.Equal(b.runs[sorted[same]].off, off); same++ {
			c += b.runs[sorted[same]].leftOver()
		}
		group := sorted[:same]
		sorted = sorted[same:]
		q := c / bandUnroll
		if q == 0 {
			continue
		}
		rec := arena[n : n+2+q*bandUnroll]
		rec[0], rec[1] = group[0], q
		taken := rec[2:]
		for _, ri := range group {
			rn := &b.runs[ri]
			for i := rn.rest; i < rn.i1 && len(taken) > 0; i++ {
				taken[0], taken = i, taken[1:]
			}
		}
		lo, hi := bounds(off)
		first, last := rec[2], rec[len(rec)-1]
		if first+lo < 0 || last+hi >= cols {
			continue
		}
		for _, ri := range group {
			if rn := &b.runs[ri]; rn.rest <= last {
				rn.rest = min(rn.i1, last+1)
			}
		}
		n += len(rec)
		size += q * bandUnroll * len(off)
		b.xlen = max(b.xlen, last+hi+1)
		b.dlen = max(b.dlen, last+1)
	}
	b.quads = arena[:n:n]
	return size
}

// leftOver counts the rows of a period-1 run that no chunk takes: the n mod 4
// after a transposed run's chunks, every row of a run shorter than 4; none of
// an empty-row run or of one the bounds proof kept off the vector path.
func (rn *bandRun) leftOver() int {
	n := rn.i1 - rn.i0
	if rn.d != 1 || len(rn.off) == 0 || rn.vt < 0 && n >= bandUnroll {
		return 0
	}
	return n % bandUnroll
}

// bounds returns the least and the largest offset of a non-empty pattern.
func bounds(off []int) (lo, hi int) {
	lo, hi = off[0], off[0]
	for _, o := range off {
		lo, hi = min(lo, o), max(hi, o)
	}
	return lo, hi
}

// colsEqualShifted reports whether local row i's compact columns equal
// cols+s entry for entry.
func colsEqualShifted(l *Local, i int, cols []int, s int) bool {
	ci, _ := l.Row(i)
	if len(ci) != len(cols) {
		return false
	}
	for k, c := range ci {
		if c != cols[k]+s {
			return false
		}
	}
	return true
}

func (b *bandRows) name() string { return "band" }
func (b *bandRows) nnz() int     { return b.nz }

// coveredRows counts the rows in runs long enough for the fast loops: the
// planner's statistic. Period-1 runs need bandUnroll rows to feed the
// unrolled loop; a periodic run pays off from its first full group (the
// group shares every x load across its d rows).
func (b *bandRows) coveredRows() int {
	covered := 0
	for _, rn := range b.runs {
		if n := rn.i1 - rn.i0; n >= bandMinRun || rn.d > 1 {
			covered += n
		}
	}
	return covered
}

func (b *bandRows) mul(dst, x []float64) {
	if len(x) < b.xlen || len(dst) < b.dlen {
		panic(fmt.Sprintf("sparse: band kernel needs len(x) ≥ %d and len(dst) ≥ %d, got %d and %d",
			b.xlen, b.dlen, len(x), len(dst)))
	}
	for ri := range b.runs {
		rn := &b.runs[ri]
		if rn.d > 1 {
			if rn.vt >= 0 {
				g := (rn.i1 - rn.i0) / bandGroupPeriod
				bandMulGroups(&b.vt[rn.vt], &rn.off[0], len(rn.off), &x[rn.i0], &dst[rn.i0], g/4, g/2%2, g%2)
			} else {
				b.mulPeriodic(rn, dst, x)
			}
			continue
		}
		off := rn.off
		w := len(off)
		if rn.vt >= 0 {
			n := rn.i1 - rn.i0
			bandMulChunks(&b.vt[rn.vt], &off[0], w, &x[rn.i0], &dst[rn.i0], n/(2*bandUnroll), n/bandUnroll%2)
		}
		// The portable loops take the rest: the whole run where nothing is
		// transposed, else the left-over rows no quad gathered.
		i := rn.rest
		vi := rn.base + (i-rn.i0)*w
		for ; i+bandUnroll <= rn.i1; i += bandUnroll {
			// Re-sliced to len(off), the four rows need no index check
			// inside the entry loop.
			v0 := b.vals[vi : vi+w : vi+w][:len(off)]
			v1 := b.vals[vi+w : vi+2*w : vi+2*w][:len(off)]
			v2 := b.vals[vi+2*w : vi+3*w : vi+3*w][:len(off)]
			v3 := b.vals[vi+3*w : vi+4*w : vi+4*w][:len(off)]
			var a0, a1, a2, a3 float64
			for k, o := range off {
				xo := x[i+o : i+o+4 : i+o+4]
				a0 += v0[k] * xo[0]
				a1 += v1[k] * xo[1]
				a2 += v2[k] * xo[2]
				a3 += v3[k] * xo[3]
			}
			dst[i] = a0
			dst[i+1] = a1
			dst[i+2] = a2
			dst[i+3] = a3
			vi += bandUnroll * w
		}
		for ; i < rn.i1; i++ {
			v := b.vals[vi : vi+w : vi+w]
			var a float64
			for k, o := range off {
				a += v[k] * x[i+o]
			}
			dst[i] = a
			vi += w
		}
	}
	for g, vt := b.quads, b.qvt; len(g) > 0; {
		off, q := b.runs[g[0]].off, g[1]
		bandMulGather(&b.vt[vt], &off[0], len(off), &x[0], &dst[0], &g[2], q)
		vt += q * bandUnroll * len(off)
		g = g[2+q*bandUnroll:]
	}
}

// mulPeriodic is the period-d loop: the d rows of a group read the same
// columns, so each x entry is loaded once per group and feeds d independent
// accumulators. The dominant dof counts (2, 3, 4) run with scalar
// accumulators so they live in registers; other periods take the generic
// array loop.
func (b *bandRows) mulPeriodic(rn *bandRun, dst, x []float64) {
	off := rn.off
	w := len(off)
	vi := rn.base
	switch rn.d {
	case 2:
		for i := rn.i0; i < rn.i1; i += 2 {
			v0 := b.vals[vi : vi+w : vi+w]
			v1 := b.vals[vi+w : vi+2*w : vi+2*w]
			var a0, a1 float64
			for k, o := range off {
				xv := x[i+o]
				a0 += v0[k] * xv
				a1 += v1[k] * xv
			}
			dst[i] = a0
			dst[i+1] = a1
			vi += 2 * w
		}
	case 3:
		for i := rn.i0; i < rn.i1; i += 3 {
			v0 := b.vals[vi : vi+w : vi+w]
			v1 := b.vals[vi+w : vi+2*w : vi+2*w]
			v2 := b.vals[vi+2*w : vi+3*w : vi+3*w]
			var a0, a1, a2 float64
			for k, o := range off {
				xv := x[i+o]
				a0 += v0[k] * xv
				a1 += v1[k] * xv
				a2 += v2[k] * xv
			}
			dst[i] = a0
			dst[i+1] = a1
			dst[i+2] = a2
			vi += 3 * w
		}
	case 4:
		for i := rn.i0; i < rn.i1; i += 4 {
			v0 := b.vals[vi : vi+w : vi+w]
			v1 := b.vals[vi+w : vi+2*w : vi+2*w]
			v2 := b.vals[vi+2*w : vi+3*w : vi+3*w]
			v3 := b.vals[vi+3*w : vi+4*w : vi+4*w]
			var a0, a1, a2, a3 float64
			for k, o := range off {
				xv := x[i+o]
				a0 += v0[k] * xv
				a1 += v1[k] * xv
				a2 += v2[k] * xv
				a3 += v3[k] * xv
			}
			dst[i] = a0
			dst[i+1] = a1
			dst[i+2] = a2
			dst[i+3] = a3
			vi += 4 * w
		}
	default:
		d := rn.d
		for i := rn.i0; i < rn.i1; i += d {
			var acc [bandMaxPeriod]float64
			for k, o := range off {
				xv := x[i+o]
				vk := vi + k
				for r := 0; r < d; r++ {
					acc[r] += b.vals[vk+r*w] * xv
				}
			}
			for r := 0; r < d; r++ {
				dst[i+r] = acc[r]
			}
			vi += d * w
		}
	}
}
