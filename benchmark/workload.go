package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// A workload is one set of generated inputs and the fixed unit of work — a
// pass — the benchmark repeats on them. Set-up builds the inputs and whatever
// the program prepares once (solve contexts, an open or populated cache);
// passes then run closed loop, one client, and the run reports medians over
// the timed passes.
type workload struct {
	name string
	why  string
	// golden names the golden.json entry the pass's cells are checked
	// against; the three sweeps produce the same cells and share one.
	golden string
	sweep  bool // a campaign sweep, not a set of single solves
	new    func(sc string, seed int64, tmp string) instance
}

// judged reports whether an end-to-end metric is one of the workload's own
// figures: host_ns_per_iter belongs to the single solves and cells_per_s to
// the sweeps. The driver contract makes every run print every end-to-end
// metric, so the other pairs are printed too, but within one workload they
// are wall_s rescaled by a constant; the report tables and -aa leave them
// out, so one noisy sample is not counted three times.
func (w *workload) judged(metric string) bool {
	switch metric {
	case "host_ns_per_iter":
		return !w.sweep
	case "cells_per_s":
		return w.sweep
	}
	return true
}

// instance is one set-up of a workload. It belongs to one goroutine.
type instance interface {
	// setup builds the inputs from the seed and prepares the program. tr
	// (nil = off) receives spans around the calls into each layer.
	setup(tr *tracer) error
	// pass runs one pass and checks its outputs. With tr set, the public
	// instrumentation handles of the program are switched on and their
	// counts land in passOut.layer.
	pass(tr *tracer) (*passOut, error)
	// layers re-enacts the pass layer by layer (see the README) and adds the
	// per-layer figures to m. clean is the median clean pass.
	layers(tr *tracer, clean *passOut, m layerMetrics) error
	// close removes what setup left on disk.
	close()
}

// cellStat is the simulated outcome of one cell: the figures a host-side
// change must leave bit-identical. Floats are compared by bit pattern;
// encoding/json round-trips them exactly.
type cellStat struct {
	Cell         string  `json:"cell"`
	Converged    bool    `json:"converged"`
	Iterations   int     `json:"iterations"`
	TotalSteps   int     `json:"total_steps"`
	SimTime      float64 `json:"sim_time_s"`
	RecoveryTime float64 `json:"recovery_time_s"`
	BytesSent    int64   `json:"bytes_sent"`
	MsgsSent     int64   `json:"msgs_sent,omitempty"` // single solves only: campaign cells do not carry it
	ActiveNodes  int     `json:"active_nodes"`
}

// diff names the first field in which two cell outcomes differ ("" if none).
func (c cellStat) diff(want cellStat) string {
	switch {
	case c.Cell != want.Cell:
		return fmt.Sprintf("cell %q, golden has %q", c.Cell, want.Cell)
	case c.Converged != want.Converged:
		return fmt.Sprintf("converged %v, golden %v", c.Converged, want.Converged)
	case c.Iterations != want.Iterations:
		return fmt.Sprintf("iterations %d, golden %d", c.Iterations, want.Iterations)
	case c.TotalSteps != want.TotalSteps:
		return fmt.Sprintf("total_steps %d, golden %d", c.TotalSteps, want.TotalSteps)
	case math.Float64bits(c.SimTime) != math.Float64bits(want.SimTime):
		return fmt.Sprintf("sim_time_s %.17g, golden %.17g", c.SimTime, want.SimTime)
	case math.Float64bits(c.RecoveryTime) != math.Float64bits(want.RecoveryTime):
		return fmt.Sprintf("recovery_time_s %.17g, golden %.17g", c.RecoveryTime, want.RecoveryTime)
	case c.BytesSent != want.BytesSent:
		return fmt.Sprintf("bytes_sent %d, golden %d", c.BytesSent, want.BytesSent)
	case c.MsgsSent != want.MsgsSent:
		return fmt.Sprintf("msgs_sent %d, golden %d", c.MsgsSent, want.MsgsSent)
	case c.ActiveNodes != want.ActiveNodes:
		return fmt.Sprintf("active_nodes %d, golden %d", c.ActiveNodes, want.ActiveNodes)
	}
	return ""
}

// passOut is what one pass did and cost.
type passOut struct {
	wall       time.Duration
	mallocs    uint64
	allocBytes uint64
	gcPause    time.Duration

	cells []cellStat // one sweep's cells, in grid order
	units int        // cells completed in the pass (machine cells on sweep-recost)
	steps int        // simulated CG steps behind those cells (Σ TotalSteps)

	failed   int    // cells that errored or broke an invariant
	firstBad string // the first such cell and why

	cellWall []time.Duration // solve workloads: wall of each solve
	layer    layerMetrics    // traced pass: counts from the program's own handles
}

// fail counts one bad cell and keeps the first explanation.
func (o *passOut) fail(format string, args ...any) {
	o.failed++
	if o.firstBad == "" {
		o.firstBad = fmt.Sprintf(format, args...)
	}
}

func (o *passOut) simTime() float64 {
	t := 0.0
	for i := range o.cells {
		t += o.cells[i].SimTime
	}
	return t
}

// meter brackets a timed region. ReadMemStats stops the world, so both
// reads sit outside the interval the wall clock covers.
type meter struct {
	ms runtime.MemStats
	t0 time.Time
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.ms)
	m.t0 = time.Now()
	return m
}

func (m *meter) stop(o *passOut) {
	o.wall = time.Since(m.t0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.mallocs = ms.Mallocs - m.ms.Mallocs
	o.allocBytes = ms.TotalAlloc - m.ms.TotalAlloc
	o.gcPause = time.Duration(ms.PauseTotalNs - m.ms.PauseTotalNs)
}

var workloads = []workload{
	{
		name:   "solve-fat",
		why:    "3 456 rows per rank on 4 ranks (EmiliaLike 24^3): vec/sparse/precond arithmetic is the bulk, collectives are rare; kernel work shows here, rank-model work should not",
		golden: "solve-fat",
		new:    func(sc string, seed int64, _ string) instance { return newSolveInstance(solveFat, sc, seed) },
	},
	{
		name:   "solve-wide",
		why:    "64 rows per rank on 128 ranks (EmiliaLike 16x16x32), failure-free None/ESR/ESRP/IMCR: time is cluster hand-off, allreduce and aspmv exchange; kernel work is predicted not to move it",
		golden: "solve-wide",
		new:    func(sc string, seed int64, _ string) instance { return newSolveInstance(solveWide, sc, seed) },
	},
	{
		name:   "recovery-storm",
		why:    "six 3-rank failures on 8 ranks of 375 rows (AudikwLike 10^3 x 3) under ESR/ESRP/IMCR and a finite spare pool: reconstruction, inner PCG and the no-spare shrink do most of the work",
		golden: "recovery-storm",
		new:    func(sc string, seed int64, _ string) instance { return newSolveInstance(recoveryStorm, sc, seed) },
	},
	{
		name:   "sweep-cold",
		why:    "campaign over 112 small failure-laden cells into a fresh empty cache each pass: campaign scheduling, replay recording and ccache writes beside core",
		golden: "sweep",
		sweep:  true,
		new:    func(sc string, seed int64, tmp string) instance { return newSweepInstance(sweepCold, sc, seed, tmp) },
	},
	{
		name:   "sweep-warm",
		why:    "the same grid against a populated cache, 100 sweeps per pass, zero solves: ccache digest/key/probe/framed reads and campaign fill/aggregate are the whole cost",
		golden: "sweep",
		sweep:  true,
		new:    func(sc string, seed int64, tmp string) instance { return newSweepInstance(sweepWarm, sc, seed, tmp) },
	},
	{
		name:   "sweep-recost",
		why:    "the warm cache plus 8 machine points (896 machine cells), zero solves and zero writes: schedule-tier reads, replay decode and Recost dominate, core does nothing",
		golden: "sweep",
		sweep:  true,
		new:    func(sc string, seed int64, tmp string) instance { return newSweepInstance(sweepRecost, sc, seed, tmp) },
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
