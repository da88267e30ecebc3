package esrp_test

// Pins of the paper's evidence (Tables 2–4, Figures 2–3) on two small
// constellations, through the public experiment API only: every simulated
// figure of each report, bitwise, in testdata/paper/<file>.json, and the
// rendered tables and figures in testdata/paper/small.txt. The default-scale
// `esrpbench -all` output is pinned beside them (esrpbench-all.txt) and
// checked by CI, not here: it takes minutes.
//
// Regenerate with `go test -run TestPaperGoldens -update-paper .` only for
// a deliberate change to simulated figures or their rendering.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"esrp"
)

var updatePaper = flag.Bool("update-paper", false, "rewrite testdata/paper from this build (only for a deliberate change to simulated figures)")

// paperSystem is one pinned constellation: 8 nodes, φ ∈ {1, 2, 3}.
type paperSystem struct {
	file string // golden file stem under testdata/paper
	name string
	a    func() *esrp.CSR
	ts   []int
}

var paperSystems = []paperSystem{
	{"emilia-like-12", "Emilia-like 12x12x12", func() *esrp.CSR { return esrp.EmiliaLike(12, 12, 12, 923) }, []int{1, 10, 20, 50}},
	{"audikw-like-8x3", "audikw-like 8x8x8 dof 3", func() *esrp.CSR { return esrp.AudikwLike(8, 8, 8, 3, 944) }, []int{1, 10, 20}},
}

// paperReports runs each pinned constellation once per test binary.
var paperReports = sync.OnceValues(func() ([]*esrp.ExperimentReport, error) {
	reps := make([]*esrp.ExperimentReport, len(paperSystems))
	for i, s := range paperSystems {
		rep, err := esrp.RunExperiment(esrp.ExperimentSpec{
			Name:   s.name,
			Matrix: s.a(),
			Nodes:  8,
			Ts:     s.ts,
			Phis:   []int{1, 2, 3},
		})
		if err != nil {
			return nil, err
		}
		reps[i] = rep
	}
	return reps, nil
})

func loadPaperReports(t *testing.T) []*esrp.ExperimentReport {
	t.Helper()
	if testing.Short() {
		t.Skip("paper constellations in -short mode")
	}
	reps, err := paperReports()
	if err != nil {
		t.Fatalf("RunExperiment: %v", err)
	}
	return reps
}

// paperGolden is the flat schema of testdata/paper/<file>.json: the
// reference run, then one row per failure-free cell and per failure cell,
// in the report's order. Go's float encoding round-trips exactly, so equal
// bytes mean bitwise-equal figures.
type paperGolden struct {
	Name  string  `json:"name"`
	Rows  int     `json:"rows"`
	NNZ   int     `json:"nnz"`
	Nodes int     `json:"nodes"`
	Rtol  float64 `json:"rtol"`

	Reference   paperRef    `json:"reference"`
	FailureFree []paperFF   `json:"failure_free"`
	Failures    []paperFail `json:"failures"`
}

type paperRef struct {
	SimTime      float64 `json:"sim_time_s"`
	Iterations   int     `json:"iterations"`
	Drift        float64 `json:"drift"`
	MaxNodeBytes int64   `json:"max_node_bytes"`
	HaloBytes    int64   `json:"halo_bytes"`
}

type paperFF struct {
	Strategy     string  `json:"strategy"`
	T            int     `json:"t"`
	Phi          int     `json:"phi"`
	SimTime      float64 `json:"sim_time_s"`
	Overhead     float64 `json:"overhead"`
	Iterations   int     `json:"iterations"`
	MaxNodeBytes int64   `json:"max_node_bytes"`
	HaloBytes    int64   `json:"halo_bytes"`
}

type paperFail struct {
	Strategy         string  `json:"strategy"`
	T                int     `json:"t"`
	Phi              int     `json:"phi"`
	Location         string  `json:"location"`
	Psi              int     `json:"psi"`
	FailureIter      int     `json:"failure_iter"`
	SimTime          float64 `json:"sim_time_s"`
	Overhead         float64 `json:"overhead"`
	RecoveryOverhead float64 `json:"recovery_overhead"`
	WastedIters      int     `json:"wasted_iters"`
	Drift            float64 `json:"drift"`
	Converged        bool    `json:"converged"`
}

// flattenPaper condenses a report into the golden schema.
func flattenPaper(rep *esrp.ExperimentReport) paperGolden {
	g := paperGolden{
		Name: rep.Spec.Name, Rows: rep.Spec.Matrix.Rows, NNZ: rep.Spec.Matrix.NNZ(),
		Nodes: rep.Spec.Nodes, Rtol: rep.Spec.Rtol,
		Reference: paperRef{
			SimTime: rep.Ref.SimTime, Iterations: rep.Ref.Iterations, Drift: rep.Ref.Drift,
			MaxNodeBytes: rep.Ref.MaxNodeBytes, HaloBytes: rep.Ref.HaloBytes,
		},
	}
	for _, group := range [][]esrp.ExperimentCell{rep.ESRP, rep.IMCR} {
		for _, c := range group {
			ff := &c.FF
			g.FailureFree = append(g.FailureFree, paperFF{
				Strategy: ff.Strategy, T: ff.T, Phi: ff.Phi,
				SimTime: ff.SimTime, Overhead: rep.Overhead(ff), Iterations: ff.Iterations,
				MaxNodeBytes: ff.MaxNodeBytes, HaloBytes: ff.HaloBytes,
			})
			for li, loc := range []string{"Start", "Center"} {
				f := &c.Fail[li]
				g.Failures = append(g.Failures, paperFail{
					Strategy: ff.Strategy, T: ff.T, Phi: ff.Phi,
					Location: loc, Psi: len(f.Events[0].Ranks), FailureIter: f.Events[0].Iteration,
					SimTime: f.SimTime, Overhead: rep.Overhead(f), RecoveryOverhead: rep.RecoveryOverhead(f),
					WastedIters: f.WastedIters, Drift: f.Drift, Converged: f.Converged,
				})
			}
		}
	}
	return g
}

// renderPaper renders both constellations the way esrpbench does: Table 1,
// each report's overhead table and figures, and the drift table.
func renderPaper(reps []*esrp.ExperimentReport) string {
	var b strings.Builder
	var rows []esrp.Table1Row
	for _, r := range reps {
		rows = append(rows, esrp.Table1Row{
			Name: r.Spec.Name, ProblemType: "Structural", Size: r.Spec.Matrix.Rows, NNZ: r.Spec.Matrix.NNZ(),
		})
	}
	b.WriteString(esrp.RenderTable1(rows) + "\n")
	for _, r := range reps {
		b.WriteString(esrp.RenderOverheadTable(r) + "\n")
		for _, ff := range []bool{true, false} {
			b.WriteString(esrp.RenderFigure(r, ff) + "\n")
			b.WriteString(esrp.RenderFigureASCII(r, ff) + "\n")
		}
	}
	b.WriteString(esrp.RenderDriftTable(reps))
	return b.String()
}

func TestPaperGoldens(t *testing.T) {
	reps := loadPaperReports(t)
	check := func(file string, got []byte) {
		t.Helper()
		path := filepath.Join("testdata", "paper", file)
		if *updatePaper {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update-paper)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from this build's output; a deliberate change regenerates it with -update-paper.\ngot:\n%s", path, got)
		}
	}
	for i, s := range paperSystems {
		raw, err := json.MarshalIndent(flattenPaper(reps[i]), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		check(s.file+".json", append(raw, '\n'))
	}
	check("small.txt", []byte(renderPaper(reps)))
}

// The paper injects the failure two iterations before the end of the
// interval containing C/2, so an interval T > 1 with 2T > C puts it before
// the first storage stage or checkpoint, or after convergence. Neither is
// the experiment the table claims, so the constellation refuses it.
func TestPaperRejectsExcludedIntervals(t *testing.T) {
	if testing.Short() {
		t.Skip("reference solves in -short mode")
	}
	for _, tc := range []struct {
		a    *esrp.CSR
		ts   []int
		want string
	}{
		{esrp.EmiliaLike(12, 12, 12, 923), []int{1, 20, 100}, "T = 100 exceeds C/2 for C = 109"},
		{esrp.AudikwLike(8, 8, 8, 3, 944), []int{1, 20, 50}, "T = 50 exceeds C/2 for C = 59"},
	} {
		rep, err := esrp.RunExperiment(esrp.ExperimentSpec{Matrix: tc.a, Nodes: 8, Ts: tc.ts, Phis: []int{1}})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Ts %v: report %v, error %v; want an error containing %q", tc.ts, rep != nil, err, tc.want)
		}
	}
}

// A grid that refuses its failure schedule, or a cell that fails to run,
// fails the constellation, naming the grid or the cell, and never renders
// as a row of zeros.
func TestPaperCellErrorsAreErrors(t *testing.T) {
	a := esrp.Poisson2D(24, 24)
	for _, tc := range []struct {
		phis []int
		want string
	}{
		{[]int{1, 5}, "Center grid: campaign: scenario at 8 nodes: faultsim: event 0 rank 8 out of range"}, // the Center block of max(φ) = 5 ranks
		{[]int{8}, "ESR T=1 φ=8 failure-free"},
	} {
		rep, err := esrp.RunExperiment(esrp.ExperimentSpec{Matrix: a, Nodes: 8, Ts: []int{1, 10}, Phis: tc.phis})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("φ %v: report %v, error %v; want an error containing %q", tc.phis, rep != nil, err, tc.want)
		}
	}
}

// TestPaperClaims states the paper's findings (Tables 2–4, Figures 2–3) as
// inequalities over the two pinned constellations.
func TestPaperClaims(t *testing.T) {
	for _, rep := range loadPaperReports(t) {
		t.Run(rep.Spec.Name, func(t *testing.T) { checkPaperClaims(t, rep) })
	}
}

func checkPaperClaims(t *testing.T, rep *esrp.ExperimentReport) {
	c := float64(rep.Ref.Iterations)
	ff := func(p *esrp.ExperimentCell) float64 { return rep.Overhead(&p.FF) }
	rc := func(p *esrp.ExperimentCell, li int) float64 { return rep.RecoveryOverhead(&p.Fail[li]) }
	byTPhi := make(map[[2]int]*esrp.ExperimentCell) // ESR and ESRP cells
	for i := range rep.ESRP {
		byTPhi[[2]int{rep.ESRP[i].FF.T, rep.ESRP[i].FF.Phi}] = &rep.ESRP[i]
	}
	phis := rep.Spec.Phis
	var ts []int // ESRP intervals, ascending as in the pinned specs
	for _, tt := range rep.Spec.Ts {
		if tt > 2 {
			ts = append(ts, tt)
		}
	}
	// Every run converges, and its residual drift (Eq. 2) stays within an
	// order of magnitude of the tolerance (Table 4).
	converges := func(what string, cell *esrp.CampaignCell) {
		if tol := 10 * rep.Spec.Rtol; !cell.Converged || math.Abs(cell.Drift) > tol {
			t.Errorf("%s: converged %v, drift %g; want convergence with |drift| ≤ %g", what, cell.Converged, cell.Drift, tol)
		}
	}
	converges("reference", &rep.Ref)

	for _, cells := range [][]esrp.ExperimentCell{rep.ESRP, rep.IMCR} {
		for i := range cells {
			p := &cells[i]
			s, tt, phi := p.FF.Strategy, p.FF.T, p.FF.Phi
			converges(fmt.Sprintf("%s T=%d φ=%d failure-free", s, tt, phi), &p.FF)
			// Redundancy and checkpoints never change the trajectory.
			if p.FF.Iterations != rep.Ref.Iterations {
				t.Errorf("%s T=%d φ=%d: %d failure-free iterations, want C = %d", s, tt, phi, p.FF.Iterations, rep.Ref.Iterations)
			}
			if s != "IMCR" && phi == 1 && ff(p) != 0 {
				t.Errorf("%s T=%d φ=1: failure-free overhead %g, want exactly 0 (φ = 1 needs no extra copies)", s, tt, ff(p))
			}
			if s == "IMCR" && ff(p) <= 0 {
				t.Errorf("IMCR T=%d φ=%d: failure-free overhead %g, want > 0 (checkpoint traffic)", tt, phi, ff(p))
			}
			for li, loc := range []string{"Start", "Center"} {
				f := &p.Fail[li]
				converges(fmt.Sprintf("%s T=%d φ=%d %s", s, tt, phi, loc), f)
				if s == "IMCR" && rc(p, li) >= 0.01 {
					t.Errorf("IMCR T=%d φ=%d %s: reconstruction %g of t0, want < 1 %%", tt, phi, loc, rc(p, li))
				}
				if f.WastedIters > tt || (s == "ESR" && f.WastedIters != 0) {
					t.Errorf("%s T=%d φ=%d %s: %d wasted iterations, want ≤ T (0 for ESR)", s, tt, phi, loc, f.WastedIters)
				}
				// The failure costs the reconstruction plus the repeated
				// iterations, each ≈ t0/C.
				if d := rep.Overhead(f) - rc(p, li) - ff(p) - float64(f.WastedIters)/c; math.Abs(d) > 1/c {
					t.Errorf("%s T=%d φ=%d %s: overhead − reconstruction − failure-free is %d/C %+g, want within 1/C",
						s, tt, phi, loc, f.WastedIters, d)
				}
				if s != "IMCR" {
					esr := byTPhi[[2]int{1, phi}]
					if r := rc(p, li) / rc(esr, li); math.Abs(r-1) > 0.02 {
						t.Errorf("%s T=%d φ=%d %s: reconstruction %g is %.4f × ESR's, want within 2 %%", s, tt, phi, loc, rc(p, li), r)
					}
				}
			}
		}
	}

	// Failure-free ESRP overhead falls with T (strictly while positive),
	// rises with φ, and never exceeds ESR's.
	for _, phi := range phis {
		for i, tt := range ts {
			p := byTPhi[[2]int{tt, phi}]
			if esr := byTPhi[[2]int{1, phi}]; ff(p) > ff(esr) {
				t.Errorf("ESRP T=%d φ=%d: failure-free overhead %g above ESR's %g", tt, phi, ff(p), ff(esr))
			}
			if i == 0 {
				continue
			}
			prev := byTPhi[[2]int{ts[i-1], phi}]
			if ff(p) > ff(prev) || (ff(prev) > 0 && ff(p) == ff(prev)) {
				t.Errorf("ESRP φ=%d: failure-free overhead %g at T=%d, %g at T=%d; want it falling with T", phi, ff(prev), ts[i-1], ff(p), tt)
			}
		}
	}
	for _, tt := range append([]int{1}, ts...) {
		for i := 1; i < len(phis); i++ {
			lo, hi := byTPhi[[2]int{tt, phis[i-1]}], byTPhi[[2]int{tt, phis[i]}]
			if ff(hi) < ff(lo) {
				t.Errorf("%s T=%d: failure-free overhead %g at φ=%d below %g at φ=%d", hi.FF.Strategy, tt, ff(hi), phis[i], ff(lo), phis[i-1])
			}
			for li, loc := range []string{"Start", "Center"} {
				if rc(hi, li) <= rc(lo, li) {
					t.Errorf("%s T=%d %s: reconstruction %g at ψ=%d not above %g at ψ=%d", hi.FF.Strategy, tt, loc, rc(hi, li), phis[i], rc(lo, li), phis[i-1])
				}
			}
		}
	}
}
