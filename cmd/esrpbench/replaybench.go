package main

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"esrp"
)

// This file measures the PR 9 replay row family: the same machine-parameter
// grid costed the full way (one complete simulated solve per machine point)
// and the replay way (one recorded solve, then one O(events) re-cost per
// point). The simulated figures are identical by construction — the replay
// bitwise gate below asserts it — so the rows isolate pure host-side
// throughput: how many machine-sweep cells per second each path sustains.

// replayBenchConfig is the recorded fixture: the Emilia-like analog at a
// size where the numerical work of a full solve dwarfs the event stream
// (the schedule length depends on iterations × ranks, not on rows), ESRP
// with a mid sweep interval, fixed iteration count so the comparison is a
// pure data-path measurement.
func replayBenchConfig() esrp.Config {
	a := esrp.EmiliaLike(32, 32, 32, 923)
	return esrp.Config{
		A: a, B: esrp.RHSOnes(a.Rows), Nodes: 8,
		Strategy: esrp.StrategyESRP, T: 20, Phi: 1,
		MaxIter: 60, Rtol: 1e-30,
	}
}

// replayBenchMachines is the swept machine grid: latency × bandwidth
// variations of the default LogGP model, 8 points.
func replayBenchMachines() []esrp.CostModel {
	base := esrp.DefaultCostModel()
	var out []esrp.CostModel
	for _, lMult := range []float64{1, 2, 4, 8} {
		for _, gMult := range []float64{1, 4} {
			m := base
			m.Latency *= lMult
			m.BytePeriod *= gMult
			out = append(out, m)
		}
	}
	return out
}

// runReplayBench measures both sweep paths over the same machine grid and
// returns the rows plus the throughput ratio (re-cost cells/sec over
// full-solve cells/sec). The one-time recording cost is reported as its own
// row, so the fixed cost the replay path amortizes stays visible.
func runReplayBench() ([]HostMetric, float64) {
	cfg := replayBenchConfig()
	machines := replayBenchMachines()

	// Record once and hold the bitwise gate: a re-cost under the default
	// model must reproduce the recorded solve exactly, or the replay rows
	// would be comparing different figures.
	fmt.Fprintf(os.Stderr, "esrpbench: replay rows: recording fixture (%d rows, %d nodes, %d machine points)...\n",
		cfg.A.Rows, cfg.Nodes, len(machines))
	recStart := time.Now()
	res, sched, err := esrp.RecordSchedule(cfg)
	recordNs := time.Since(recStart).Nanoseconds()
	if err != nil {
		fmt.Fprintf(os.Stderr, "esrpbench: replay rows skipped: %v\n", err)
		return nil, 0
	}
	rep, err := esrp.Recost(sched, esrp.DefaultCostModel())
	if err != nil {
		fmt.Fprintf(os.Stderr, "esrpbench: replay rows skipped: %v\n", err)
		return nil, 0
	}
	if rep.SimTime != res.SimTime || rep.BytesSent != res.BytesSent || rep.MsgsSent != res.MsgsSent {
		fmt.Fprintf(os.Stderr, "esrpbench: replay rows skipped: re-cost diverged from solve (%v vs %v)\n",
			rep.SimTime, res.SimTime)
		return nil, 0
	}

	bench := func(name string, sweep func() error) HostMetric {
		fmt.Fprintf(os.Stderr, "esrpbench: replay rows: %s...\n", name)
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := sweep(); err != nil {
					b.Fatal(err)
				}
			}
		})
		m := HostMetric{
			Name: name, GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			NsPerOp: r.NsPerOp(), AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp(),
		}
		if r.NsPerOp() > 0 {
			m.CellsPerSec = float64(len(machines)) / (float64(r.NsPerOp()) / 1e9)
		}
		return m
	}

	full := bench("replay/full-solve-sweep", func() error {
		for i := range machines {
			c := cfg
			c.CostModel = &machines[i]
			if _, err := esrp.Solve(c); err != nil {
				return err
			}
		}
		return nil
	})
	recost := bench("replay/recost-sweep", func() error {
		_, err := esrp.RecostAll(sched, machines) // one batched walk, as campaigns re-cost
		return err
	})
	record := HostMetric{
		Name: "replay/record-once", GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		NsPerOp: recordNs,
	}

	speedup := 0.0
	if recost.NsPerOp > 0 {
		speedup = float64(full.NsPerOp) / float64(recost.NsPerOp)
	}
	fmt.Fprintf(os.Stderr, "esrpbench: replay rows: full %.3g cells/sec vs re-cost %.3g cells/sec (%.0f× over %d machine points)\n",
		full.CellsPerSec, recost.CellsPerSec, speedup, len(machines))
	return []HostMetric{full, record, recost}, speedup
}
