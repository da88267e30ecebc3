package campaign

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"unicode/utf8"
)

// Table1Row is one matrix entry of Table 1.
type Table1Row struct {
	Name        string
	ProblemType string
	Size        int
	NNZ         int
}

// RenderTable1 prints the test-matrix inventory in the layout of the paper's
// Table 1: name, problem type, size, and nonzero count. The name column is
// as wide as the longest name.
func RenderTable1(rows []Table1Row) string {
	w := utf8.RuneCountInString("Matrix")
	for _, r := range rows {
		w = max(w, utf8.RuneCountInString(r.Name))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: Test matrices\n")
	fmt.Fprintf(&b, "%-*s %-14s %12s %14s %10s\n", w, "Matrix", "Problem type", "Problem size", "#NZ", "nnz/row")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-*s %-14s %12d %14d %10.1f\n",
			w, r.Name, r.ProblemType, r.Size, r.NNZ, float64(r.NNZ)/float64(r.Size))
	}
	return b.String()
}

// RenderOverheadTable prints a report in the layout of the paper's Tables 2
// and 3: per strategy and checkpoint interval, the failure-free overhead for
// each φ, and per location the overall and reconstruction overheads for
// ψ = φ simultaneous failures. Overheads are percentages relative to the
// reference time t0.
func RenderOverheadTable(r *PaperReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Results for matrix %s. Reference time t0 = %.4g s (simulated). C = %d iterations.\n",
		r.Spec.Name, r.Ref.SimTime, r.Ref.Iterations)
	fmt.Fprintf(&b, "N = %d nodes. All overheads relative to t0, in %%.\n\n", r.Spec.Nodes)

	phis := r.Spec.Phis
	fmt.Fprintf(&b, "%-9s %4s |", "Strategy", "T")
	for _, phi := range phis {
		fmt.Fprintf(&b, " ff φ=%-3d", phi)
	}
	fmt.Fprintf(&b, "| %-7s|", "Loc")
	for _, phi := range phis {
		fmt.Fprintf(&b, " ov ψ=%-3d", phi)
	}
	fmt.Fprintf(&b, "|")
	for _, phi := range phis {
		fmt.Fprintf(&b, " rc ψ=%-3d", phi)
	}
	fmt.Fprintf(&b, "\n")

	// value writes one column entry: f of the φ cell, or "-" without one.
	value := func(group []PaperCell, phi int, f func(c *PaperCell) float64) {
		if c := findPhi(group, phi); c != nil {
			fmt.Fprintf(&b, " %7.2f ", 100*f(c))
		} else {
			fmt.Fprintf(&b, " %7s ", "-")
		}
	}
	renderGroup := func(cells []PaperCell) {
		byT := groupByT(cells)
		for _, t := range slices.Sorted(maps.Keys(byT)) {
			group := byT[t]
			for li, loc := range paperLocations {
				if li == 0 {
					fmt.Fprintf(&b, "%-9s %4d |", group[0].FF.Strategy, t)
					for _, phi := range phis {
						value(group, phi, func(c *PaperCell) float64 { return r.Overhead(&c.FF) })
					}
				} else {
					fmt.Fprintf(&b, "%-9s %4s |%s", "", "", strings.Repeat(" ", 9*len(phis)))
				}
				fmt.Fprintf(&b, "| %-7s|", loc)
				for _, phi := range phis {
					value(group, phi, func(c *PaperCell) float64 { return r.Overhead(&c.Fail[li]) })
				}
				fmt.Fprintf(&b, "|")
				for _, phi := range phis {
					value(group, phi, func(c *PaperCell) float64 { return r.RecoveryOverhead(&c.Fail[li]) })
				}
				fmt.Fprintf(&b, "\n")
			}
		}
	}
	renderGroup(r.ESRP)
	fmt.Fprintln(&b)
	renderGroup(r.IMCR)
	return b.String()
}

// DriftStats condenses the drift of all failure runs of a report into the
// paper's Table 4 row: reference drift, median drift, and minimum drift
// (the worst accuracy loss) over all ESR and ESRP failure runs.
func (r *PaperReport) DriftStats() (ref, median, min float64) {
	var drifts []float64
	for _, c := range r.ESRP {
		for _, f := range c.Fail {
			drifts = append(drifts, f.Drift)
		}
	}
	if len(drifts) == 0 {
		return r.Ref.Drift, r.Ref.Drift, r.Ref.Drift
	}
	slices.Sort(drifts)
	return r.Ref.Drift, drifts[len(drifts)/2], drifts[0]
}

// RenderDriftTable prints the paper's Table 4: residual drift (Eq. 2) of the
// reference runs and the median/minimum drift over all ESRP failure runs.
func RenderDriftTable(reports []*PaperReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: Residual drift (Eq. 2)\n")
	fmt.Fprintf(&b, "%-24s %14s %14s %14s\n", "Matrix", "Reference", "Median", "Minimum")
	for _, r := range reports {
		ref, med, min := r.DriftStats()
		fmt.Fprintf(&b, "%-24s %14.3e %14.3e %14.3e\n", r.Spec.Name, ref, med, min)
	}
	return b.String()
}

// RenderFigure prints the data series of the paper's Fig. 2 (Emilia-like) or
// Fig. 3 (audikw-like): for each checkpoint interval T > 1, the median
// runtime overhead over all locations for ESRP, ESR and IMCR, one marker per
// φ. failureFree selects subfigure (a); otherwise (b).
func RenderFigure(r *PaperReport, failureFree bool) string {
	var b strings.Builder
	kind := "(b) Node failures introduced"
	if failureFree {
		kind = "(a) Failure-free solver"
	}
	fmt.Fprintf(&b, "Figure data for %s — %s\n", r.Spec.Name, kind)
	fmt.Fprintf(&b, "median runtime overhead [%%] per (strategy, T); markers φ = %v\n\n", r.Spec.Phis)
	fmt.Fprintf(&b, "%-10s", "T")
	for _, strat := range []string{"ESRP", "ESR", "IMCR"} {
		for _, phi := range r.Spec.Phis {
			fmt.Fprintf(&b, " %s(φ=%d)", strat, phi)
		}
	}
	fmt.Fprintf(&b, "\n")

	esrCells := cellsWithT(r.ESRP, 1)
	for _, t := range tsAbove1(r.Spec.Ts) {
		fmt.Fprintf(&b, "%-10d", t)
		for _, cells := range [][]PaperCell{cellsWithT(r.ESRP, t), esrCells, cellsWithT(r.IMCR, t)} {
			for _, phi := range r.Spec.Phis {
				if c := findPhi(cells, phi); c != nil {
					fmt.Fprintf(&b, " %8.2f%%", 100*r.figureValue(c, failureFree))
				} else {
					fmt.Fprintf(&b, " %9s", "-")
				}
			}
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// figureValue is one figure marker: the failure-free overhead, or the
// median overhead over the two failure locations, i.e. their mean.
func (r *PaperReport) figureValue(c *PaperCell, failureFree bool) float64 {
	if failureFree {
		return r.Overhead(&c.FF)
	}
	return (r.Overhead(&c.Fail[0]) + r.Overhead(&c.Fail[1])) / 2
}

// RenderFigureASCII draws the paper's Fig. 2/3 layout as a log-scale ASCII
// scatter: checkpoint intervals clustered on the x-axis, runtime overhead on
// a logarithmic y-axis. Each T-cluster holds three column groups — ESRP,
// then ESR, then IMCR, one column per φ — and a marker is the digit of its
// φ's position in the sweep (1 for the first φ, 2 for the second, …).
// failureFree selects subfigure (a), otherwise (b).
func RenderFigureASCII(r *PaperReport, failureFree bool) string {
	ts := tsAbove1(r.Spec.Ts)
	if len(ts) == 0 {
		return "no intervals > 1 to plot\n"
	}
	type point struct {
		col    int
		value  float64
		marker byte
	}
	var points []point
	colsPerCluster := 3*len(r.Spec.Phis) + 3
	esrCells := cellsWithT(r.ESRP, 1)
	for ci, t := range ts {
		base := 2 + ci*colsPerCluster
		for pi, phi := range r.Spec.Phis {
			digit := byte('1' + pi)
			add := func(off int, c *PaperCell) {
				if c != nil {
					points = append(points, point{col: base + off, value: r.figureValue(c, failureFree), marker: digit})
				}
			}
			add(pi, findPhi(cellsWithT(r.ESRP, t), phi))
			add(len(r.Spec.Phis)+1+pi, findPhi(esrCells, phi))
			add(2*len(r.Spec.Phis)+2+pi, findPhi(cellsWithT(r.IMCR, t), phi))
		}
	}

	// Log-scale y-axis spanning the positive overheads; values at or below
	// the floor (including the exact-zero φ=1 cases) sit on the bottom row.
	const rows = 12
	minV, maxV := math.Inf(1), 0.0
	for _, p := range points {
		if p.value > 0 {
			minV = min(minV, p.value)
			maxV = max(maxV, p.value)
		}
	}
	if maxV == 0 { // all-zero degenerate case
		minV, maxV = 1e-4, 1
	}
	if minV == maxV {
		minV = maxV / 10
	}
	logMin, logMax := math.Log10(minV), math.Log10(maxV)

	width := 2 + len(ts)*colsPerCluster
	grid := make([][]byte, rows)
	for y := range grid {
		grid[y] = []byte(strings.Repeat(" ", width))
	}
	rowOf := func(v float64) int {
		if v <= minV {
			return rows - 1
		}
		frac := (math.Log10(v) - logMin) / (logMax - logMin)
		return min(max(int(math.Round(float64(rows-1)*(1-frac))), 0), rows-1)
	}
	for _, p := range points {
		if p.col < width {
			grid[rowOf(p.value)][p.col] = p.marker
		}
	}

	var b strings.Builder
	kind := "(b) node failures introduced"
	if failureFree {
		kind = "(a) failure-free solver"
	}
	fmt.Fprintf(&b, "%s — %s, runtime overhead (log scale)\n", r.Spec.Name, kind)
	fmt.Fprintf(&b, "columns per T-cluster: ESRP | ESR | IMCR; markers 1..%d = φ %v\n",
		len(r.Spec.Phis), r.Spec.Phis)
	for y := 0; y < rows; y++ {
		frac := 1 - float64(y)/float64(rows-1)
		label := math.Pow(10, logMin+frac*(logMax-logMin))
		fmt.Fprintf(&b, "%8.3f%% |%s\n", 100*label, string(grid[y]))
	}
	fmt.Fprintf(&b, "%10s +%s\n", "", strings.Repeat("-", width))
	axis := []byte(strings.Repeat(" ", width))
	for ci, t := range ts {
		lbl := fmt.Sprintf("T=%d", t)
		at := 2 + ci*colsPerCluster
		copy(axis[at:min(at+len(lbl), width)], lbl)
	}
	fmt.Fprintf(&b, "%10s  %s\n", "", string(axis))
	return b.String()
}

func groupByT(cells []PaperCell) map[int][]PaperCell {
	m := make(map[int][]PaperCell)
	for _, c := range cells {
		m[c.FF.T] = append(m[c.FF.T], c)
	}
	return m
}

func cellsWithT(cells []PaperCell, t int) []PaperCell {
	var out []PaperCell
	for _, c := range cells {
		if c.FF.T == t {
			out = append(out, c)
		}
	}
	return out
}

func findPhi(cells []PaperCell, phi int) *PaperCell {
	for i := range cells {
		if cells[i].FF.Phi == phi {
			return &cells[i]
		}
	}
	return nil
}

func tsAbove1(ts []int) []int {
	var out []int
	for _, t := range ts {
		if t > 1 {
			out = append(out, t)
		}
	}
	return out
}
