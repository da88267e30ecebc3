package campaign

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"esrp/internal/ccache"
	"esrp/internal/matgen"
)

// smallPaper is a fast constellation: a 2-D Poisson matrix on 8 nodes with a
// reduced sweep, run once per test binary.
var smallPaper = sync.OnceValues(func() (*PaperReport, error) {
	return RunPaper(PaperSpec{
		Name:   "poisson2d-24x24",
		Matrix: matgen.Poisson2D(24, 24),
		Nodes:  8,
		Ts:     []int{1, 10, 20},
		Phis:   []int{1, 2},
	})
})

func runSmallPaper(t *testing.T) *PaperReport {
	t.Helper()
	rep, err := smallPaper()
	if err != nil {
		t.Fatalf("RunPaper: %v", err)
	}
	return rep
}

func TestRunSmallConstellation(t *testing.T) {
	rep := runSmallPaper(t)
	if rep.Ref.Iterations <= 0 || rep.Ref.SimTime <= 0 {
		t.Fatalf("reference: %d iterations, %g s; want both > 0", rep.Ref.Iterations, rep.Ref.SimTime)
	}
	if rep.Ref.MaxNodeBytes <= 0 || rep.Ref.HaloBytes <= 0 {
		t.Fatalf("footprint figures missing: per-node %d B, halo %d B", rep.Ref.MaxNodeBytes, rep.Ref.HaloBytes)
	}
	if full := int64(8 * rep.Spec.Matrix.Rows); rep.Ref.MaxNodeBytes >= full {
		t.Errorf("per-node memory %d B reaches a full-length vector (%d B); the data path must stay O(local+halo)",
			rep.Ref.MaxNodeBytes, full)
	}
	// 3 intervals × 2 φ for ESR/ESRP; IMCR skips T = 1.
	if got, want := len(rep.ESRP), 6; got != want {
		t.Errorf("len(ESRP) = %d, want %d", got, want)
	}
	if got, want := len(rep.IMCR), 4; got != want {
		t.Errorf("len(IMCR) = %d, want %d", got, want)
	}
	for _, c := range append(rep.ESRP, rep.IMCR...) {
		if c.FF.Iterations != rep.Ref.Iterations {
			t.Errorf("%s T=%d φ=%d failure-free iterations %d differ from reference %d (redundancy must not change the trajectory)",
				c.FF.Strategy, c.FF.T, c.FF.Phi, c.FF.Iterations, rep.Ref.Iterations)
		}
		for li, f := range c.Fail {
			if f.Strategy != c.FF.Strategy || f.T != c.FF.T || f.Phi != c.FF.Phi {
				t.Errorf("%s failure cell %s T=%d φ=%d sits under %s T=%d φ=%d",
					paperLocations[li], f.Strategy, f.T, f.Phi, c.FF.Strategy, c.FF.T, c.FF.Phi)
			}
			if !f.Converged || len(f.Recoveries) != 1 {
				t.Errorf("%s T=%d φ=%d %s: converged %v after %d recoveries, want one recovery",
					f.Strategy, f.T, f.Phi, paperLocations[li], f.Converged, len(f.Recoveries))
			}
			if rep.Overhead(&f) < 0 {
				t.Errorf("%s T=%d φ=%d %s: negative overhead %g", f.Strategy, f.T, f.Phi, paperLocations[li], rep.Overhead(&f))
			}
		}
	}
}

// A Ts entry of 2 follows the campaign's interval rule: ESR is its T = 1
// row only, IMCR runs at T = 2, and ESRP only above 2.
func TestESRPStrategySelection(t *testing.T) {
	rep, err := RunPaper(PaperSpec{
		Matrix: matgen.Poisson2D(24, 24), Nodes: 8, Ts: []int{2, 10}, Phis: []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, c := range append(rep.ESRP, rep.IMCR...) {
		got = append(got, fmt.Sprintf("%s@%d", c.FF.Strategy, c.FF.T))
	}
	if want := "ESR@1 ESRP@10 IMCR@2 IMCR@10"; strings.Join(got, " ") != want {
		t.Fatalf("cells %v, want %s", got, want)
	}
}

// The failed block starts at rank 0 (Start) or N/2 (Center) and is ψ = φ
// ranks wide, at the paper's injection iteration for the cell's T.
func TestLocationRanks(t *testing.T) {
	rep := runSmallPaper(t)
	c := rep.Ref.Iterations
	for _, pc := range rep.ESRP {
		for li, base := range []int{0, rep.Spec.Nodes / 2} {
			f := pc.Fail[li]
			if len(f.Events) != 1 {
				t.Fatalf("%s T=%d φ=%d %s: %d events, want 1", f.Strategy, f.T, f.Phi, paperLocations[li], len(f.Events))
			}
			ev := f.Events[0]
			if ev.Iteration != FailureIteration(c, f.T) || len(ev.Ranks) != f.Phi || ev.Ranks[0] != base {
				t.Errorf("%s T=%d φ=%d %s: event %+v, want %d ranks from %d at iteration %d",
					f.Strategy, f.T, f.Phi, paperLocations[li], ev, f.Phi, base, FailureIteration(c, f.T))
			}
		}
	}
}

func TestFailureIteration(t *testing.T) {
	cases := []struct {
		c, t, want int
	}{
		{1000, 1, 500},    // ESR: failure at C/2
		{1000, 20, 518},   // interval [500,520): inject at 520-2
		{1000, 100, 598},  // interval [500,600): inject at 600-2
		{10279, 20, 5138}, // C/2 = 5139 lies in [5120, 5140): inject at 5138
		{10, 50, 48},      // interval [0,50): inject at 48 even past convergence
		{0, 1, 0},
	}
	for _, tc := range cases {
		if got := FailureIteration(tc.c, tc.t); got != tc.want {
			t.Errorf("FailureIteration(%d, %d) = %d, want %d", tc.c, tc.t, got, tc.want)
		}
	}
}

func TestFailureIterationInsideHalfInterval(t *testing.T) {
	// The injection point must lie in the interval containing C/2 and be
	// exactly two before its end, for a range of C and T.
	for _, c := range []int{100, 500, 1234, 10279} {
		for _, tt := range []int{5, 20, 50, 100} {
			j := FailureIteration(c, tt)
			k := (c / 2) / tt
			if j < k*tt || j >= (k+1)*tt {
				t.Errorf("C=%d T=%d: injection %d outside interval [%d,%d)", c, tt, j, k*tt, (k+1)*tt)
			}
			if (k+1)*tt-j != 2 {
				t.Errorf("C=%d T=%d: injection %d is %d before interval end, want 2", c, tt, j, (k+1)*tt-j)
			}
		}
	}
}

func TestRenderersProduceTables(t *testing.T) {
	rep := runSmallPaper(t)
	tbl := RenderOverheadTable(rep)
	for _, want := range []string{"ESRP", "ESR", "IMCR", "Start", "Center", "Reference time"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("overhead table missing %q:\n%s", want, tbl)
		}
	}
	drift := RenderDriftTable([]*PaperReport{rep})
	if !strings.Contains(drift, rep.Spec.Name) || !strings.Contains(drift, "Median") {
		t.Errorf("drift table malformed:\n%s", drift)
	}
	figA := RenderFigure(rep, true)
	figB := RenderFigure(rep, false)
	if !strings.Contains(figA, "Failure-free") || !strings.Contains(figB, "failures introduced") {
		t.Errorf("figure renderers malformed:\n%s\n%s", figA, figB)
	}
}

func TestRenderTable1(t *testing.T) {
	a := matgen.Poisson2D(10, 10)
	out := RenderTable1([]Table1Row{{Name: "poisson", ProblemType: "Test", Size: a.Rows, NNZ: a.NNZ()}})
	if !strings.Contains(out, "poisson") || !strings.Contains(out, "100") {
		t.Errorf("table 1 malformed:\n%s", out)
	}
}

func TestDriftStats(t *testing.T) {
	drift := func(d float64) Cell { return Cell{CellResult: ccache.CellResult{Drift: d}} }
	rep := &PaperReport{Ref: drift(-0.01)}
	ref, med, min := rep.DriftStats()
	if ref != -0.01 || med != -0.01 || min != -0.01 {
		t.Errorf("empty drift stats = %g %g %g, want all -0.01", ref, med, min)
	}
	rep.ESRP = []PaperCell{
		{Fail: [2]Cell{drift(-0.03), drift(-0.01)}},
		{Fail: [2]Cell{drift(-0.02), drift(-0.04)}},
	}
	rep.IMCR = []PaperCell{{Fail: [2]Cell{drift(-1), drift(-1)}}} // not ESR/ESRP: ignored
	_, med, min = rep.DriftStats()
	if min != -0.04 {
		t.Errorf("min drift = %g, want -0.04", min)
	}
	if med != -0.02 {
		t.Errorf("median drift = %g, want -0.02", med)
	}
}

func TestSpecValidation(t *testing.T) {
	a := matgen.Poisson2D(8, 8)
	for name, spec := range map[string]PaperSpec{
		"no matrix":    {},
		"repeated T":   {Matrix: a, Ts: []int{1, 10, 10}},
		"zero φ":       {Matrix: a, Phis: []int{0, 1}},
		"repeated φ":   {Matrix: a, Phis: []int{2, 2}},
		"negative T":   {Matrix: a, Ts: []int{-5}},
		"nodes > rows": {Matrix: a, Nodes: 100, Ts: []int{1}, Phis: []int{1}},
	} {
		if _, err := RunPaper(spec); err == nil {
			t.Errorf("%s: RunPaper succeeded, want an error", name)
		}
	}
	// A tolerance that is not finite stops the constellation before any
	// cell runs: NaN used to run every cell to its iteration cap.
	for _, rtol := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		spec := PaperSpec{Matrix: a, Nodes: 4, Ts: []int{1}, Phis: []int{1}, Rtol: rtol}
		if _, err := RunPaper(spec); err == nil || !strings.Contains(err.Error(), "tolerance must be finite") {
			t.Errorf("Rtol %g: error %v, want one saying the tolerance must be finite", rtol, err)
		}
	}
}

func TestRenderFigureASCII(t *testing.T) {
	rep := runSmallPaper(t)
	for _, ff := range []bool{true, false} {
		out := RenderFigureASCII(rep, ff)
		if !strings.Contains(out, "T=10") || !strings.Contains(out, "T=20") {
			t.Errorf("ASCII figure missing T clusters:\n%s", out)
		}
		if !strings.Contains(out, "%") || !strings.Contains(out, "1") {
			t.Errorf("ASCII figure missing axis or markers:\n%s", out)
		}
	}
	empty := RenderFigureASCII(&PaperReport{Spec: PaperSpec{Ts: []int{1}}}, true)
	if !strings.Contains(empty, "no intervals") {
		t.Errorf("degenerate figure: %q", empty)
	}
}
