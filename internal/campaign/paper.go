package campaign

import (
	"fmt"
	"math"
	"slices"

	"esrp/internal/core"
	"esrp/internal/faultsim"
	"esrp/internal/sparse"
)

// PaperSpec describes one experiment family of the paper's constellation
// (Section 5): one matrix on one cluster size, swept over checkpoint
// intervals and redundancy counts, each setting run failure-free and with
// ψ = φ simultaneous node failures at the two failure locations.
type PaperSpec struct {
	Name   string      // matrix label for the rendered tables
	Matrix *sparse.CSR // the SPD system, solved for b = A·1
	Nodes  int         // simulated cluster size (paper: 128; default 32)
	Rtol   float64     // outer tolerance (paper and default: 1e-8; not finite is an error)

	// Ts are the checkpoint intervals (default 1, 20, 50, 100). An entry of
	// 1 or 2 is the plain-ESR row, reported at T = 1; ESRP takes T > 2 and
	// IMCR T > 1. Every T > 1 must satisfy 2T ≤ C, the reference iteration
	// count, for the failure to strike after a completed storage stage.
	Ts []int
	// Phis are the redundancy counts φ (default 1, 3, 8); the failure runs
	// kill ψ = φ nodes.
	Phis []int
}

// PaperCell is one (strategy, T, φ) setting of the constellation: its
// failure-free run and one run per failure location.
type PaperCell struct {
	FF   Cell
	Fail [2]Cell // ψ = φ failed ranks starting at rank 0 ("Start") and at N/2 ("Center")
}

// PaperReport is one spec's constellation. Overheads are derived from the
// cells against the reference by Overhead and RecoveryOverhead.
type PaperReport struct {
	Spec PaperSpec
	Ref  Cell        // the non-resilient reference: t0 = Ref.SimTime, C = Ref.Iterations
	ESRP []PaperCell // by (T, φ); the T = 1 entries are plain ESR
	IMCR []PaperCell // by (T, φ)
}

// paperLocations labels PaperCell.Fail, in the paper's row order.
var paperLocations = [2]string{"Start", "Center"}

// Overhead is a cell's runtime overhead over the reference, (t − t0)/t0.
func (r *PaperReport) Overhead(c *Cell) float64 { return (c.SimTime - r.Ref.SimTime) / r.Ref.SimTime }

// RecoveryOverhead is a failure cell's reconstruction time over t0.
func (r *PaperReport) RecoveryOverhead(c *Cell) float64 { return c.RecoveryTime / r.Ref.SimTime }

// FailureIteration returns the paper's injection point for interval T: two
// iterations before the end of the checkpoint interval containing iteration
// C/2 — the worst case, where almost all progress since the interval's
// storage stage is lost. For T = 1 (plain ESR) it is simply C/2.
func FailureIteration(c, t int) int {
	if t <= 1 {
		return c / 2
	}
	k := (c / 2) / t
	return max((k+1)*t-2, 0)
}

func (s PaperSpec) withDefaults() (PaperSpec, error) {
	if s.Matrix == nil {
		return s, fmt.Errorf("campaign: paper constellation: missing matrix")
	}
	if s.Name == "" {
		s.Name = "matrix"
	}
	if s.Nodes <= 0 {
		s.Nodes = 32
	}
	if math.IsNaN(s.Rtol) || math.IsInf(s.Rtol, 0) {
		return s, fmt.Errorf("campaign: paper constellation: tolerance must be finite, got %g", s.Rtol)
	}
	if s.Rtol <= 0 {
		s.Rtol = 1e-8
	}
	if len(s.Ts) == 0 {
		s.Ts = []int{1, 20, 50, 100}
	}
	if len(s.Phis) == 0 {
		s.Phis = []int{1, 3, 8}
	}
	for _, axis := range []struct {
		name string
		xs   []int
	}{{"T", s.Ts}, {"φ", s.Phis}} {
		for i, x := range axis.xs {
			if x < 1 || slices.Contains(axis.xs[:i], x) {
				return s, fmt.Errorf("campaign: paper constellation: %s entry %d must be positive and listed once", axis.name, x)
			}
		}
	}
	return s, nil
}

// grid is the campaign over the spec's system for the given strategies,
// intervals and failure scenario.
func (s PaperSpec) grid(strats []core.Strategy, ts []int, sc faultsim.Scenario) Grid {
	return Grid{
		Matrices:   []MatrixSpec{{Name: s.Name, A: s.Matrix}},
		Nodes:      []int{s.Nodes},
		Strategies: strats,
		Ts:         ts,
		Phis:       s.Phis,
		Scenario:   sc,
		Rtol:       s.Rtol,
	}
}

// RunPaper executes the constellation as campaign grids: one failure-free
// grid (the None reference plus ESR, ESRP and IMCR over every admissible
// T), then one grid per (T, location) whose fixed schedule fails a block of
// max(φ) ranks at FailureIteration(C, T) — each cell takes its first φ.
// Any cell error is the constellation's error.
func RunPaper(spec PaperSpec) (*PaperReport, error) {
	spec, err := spec.withDefaults()
	if err != nil {
		return nil, err
	}
	// ESR is the row of an entry T ≤ 2; ESRP and IMCR run wherever the
	// grid's interval rule admits an entry.
	strats := []core.Strategy{core.StrategyNone}
	if slices.Min(spec.Ts) <= 2 {
		strats = append(strats, core.StrategyESR)
	}
	all := spec.grid(nil, spec.Ts, faultsim.Scenario{})
	for _, s := range []core.Strategy{core.StrategyESRP, core.StrategyIMCR} {
		if len(all.tsFor(s)) > 0 {
			strats = append(strats, s)
		}
	}
	all.Strategies = strats
	ff, err := runPaperGrid(all, "failure-free")
	if err != nil {
		return nil, err
	}
	rep := &PaperReport{Spec: spec, Ref: ff.Cells[0]}
	c := rep.Ref.Iterations
	if !rep.Ref.Converged {
		return nil, fmt.Errorf("campaign: reference solver did not converge in %d iterations", c)
	}
	for _, t := range spec.Ts {
		if t > 1 && 2*t > c {
			return nil, fmt.Errorf("campaign: interval T = %d exceeds C/2 for C = %d reference iterations: the failure at iteration %d would strike before the first storage stage or after convergence",
				t, c, FailureIteration(c, t))
		}
	}

	for _, cell := range ff.Cells[1:] {
		if cell.strat == core.StrategyIMCR {
			rep.IMCR = append(rep.IMCR, PaperCell{FF: cell})
		} else {
			rep.ESRP = append(rep.ESRP, PaperCell{FF: cell})
		}
	}
	type key struct {
		strat  core.Strategy
		t, phi int
	}
	cells := make(map[key]*PaperCell)
	for _, group := range [][]PaperCell{rep.ESRP, rep.IMCR} {
		for i := range group {
			cells[key{group[i].FF.strat, group[i].FF.T, group[i].FF.Phi}] = &group[i]
		}
	}
	psi := slices.Max(spec.Phis)
	for _, t := range append([]int{1}, tsAbove1(spec.Ts)...) {
		var at []core.Strategy // the strategies with cells at t
		for _, s := range strats[1:] {
			if slices.Contains(all.tsFor(s), t) {
				at = append(at, s)
			}
		}
		if len(at) == 0 {
			continue
		}
		for li, base := range [2]int{0, spec.Nodes / 2} {
			ranks := make([]int, psi)
			for i := range ranks {
				ranks[i] = base + i
			}
			sc := faultsim.Scenario{Model: faultsim.ModelFixed, Schedule: []core.FailureSpec{
				{Iteration: FailureIteration(c, t), Ranks: ranks},
			}}
			fr, err := runPaperGrid(spec.grid(at, []int{t}, sc), paperLocations[li])
			if err != nil {
				return nil, err
			}
			for _, cell := range fr.Cells {
				cells[key{cell.strat, cell.T, cell.Phi}].Fail[li] = cell
			}
		}
	}
	return rep, nil
}

// runPaperGrid runs one grid of the constellation and turns the grid's
// refusal or the first cell error into the run's error; where names the
// grid's failure location.
func runPaperGrid(g Grid, where string) (*Report, error) {
	rep, err := Run(g)
	if err != nil {
		return nil, fmt.Errorf("%s grid: %w", where, err)
	}
	for _, c := range rep.Cells {
		if c.Err == "" {
			continue
		}
		if c.strat == core.StrategyNone {
			return nil, fmt.Errorf("campaign: reference run: %s", c.Err)
		}
		return nil, fmt.Errorf("campaign: %s T=%d φ=%d %s: %s", c.Strategy, c.T, c.Phi, where, c.Err)
	}
	return rep, nil
}
