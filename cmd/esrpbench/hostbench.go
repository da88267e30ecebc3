package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"

	"esrp"
)

// hostBenchFile is the export this tree's -hostbench writes. Bump the PR
// number alongside each performance PR: the chaining below picks up the
// newest lower-numbered BENCH_PR*.json automatically, so the trajectory
// stays machine-readable without hand-wiring file names.
const hostBenchFile = "BENCH_PR10.json"

// HostMetric is one host-side performance measurement: wall-clock and
// allocation cost per operation, plus sweep throughput for the campaign
// row. These are the numbers the structure-aware kernels optimize — the
// simulated (LogGP) figures in the same exports are bitwise invariant.
// Every row carries the GOMAXPROCS it was measured under, so mixed-procs
// files (the -scaling sweep writes into the same export) stay
// interpretable row by row.
type HostMetric struct {
	Name        string  `json:"name"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu,omitempty"` // host CPU count the row was measured on
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	CellsPerSec float64 `json:"cells_per_sec,omitempty"` // campaign rows only

	// Host-telemetry columns (internal/hostobs), measured by a separate
	// instrumented pass after the clean timing runs so they never perturb
	// ns/op or allocs/op. BarrierWaitShare is Σ member barrier-wait ns over
	// (members × instrumented wall ns) — the fraction of aggregate rank
	// time spent waiting at collectives. Steals and GCPauseNs come from the
	// campaign recorder (campaign rows only).
	BarrierWaitShare float64 `json:"barrier_wait_share,omitempty"`
	Steals           int64   `json:"steals,omitempty"`
	GCPauseNs        int64   `json:"gc_pause_ns,omitempty"`
}

// ScalingRow is one (benchmark, GOMAXPROCS) point of the -scaling sweep:
// the raw per-op cost plus the derived parallel-scaling figures against the
// same benchmark's 1-proc row.
type ScalingRow struct {
	Name        string  `json:"name"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu,omitempty"` // host CPU count: gomaxprocs > num_cpu rows are oversubscribed
	NsPerOp     int64   `json:"ns_per_op"`
	CellsPerSec float64 `json:"cells_per_sec,omitempty"` // campaign rows only
	Speedup     float64 `json:"speedup"`                 // t(1 proc) / t(this row)
	Efficiency  float64 `json:"efficiency"`              // speedup / gomaxprocs

	// Host-telemetry columns from one instrumented pass per point (see
	// HostMetric): how barrier waiting, steal traffic and GC pressure move
	// as the procs sweep widens.
	BarrierWaitShare float64 `json:"barrier_wait_share,omitempty"`
	Steals           int64   `json:"steals,omitempty"`
	GCPauseNs        int64   `json:"gc_pause_ns,omitempty"`
}

// HostBenchReport is the BENCH_PR<N>.json schema: the current tree measured
// under the forced scalar-CSR kernel ("baseline", the PR 4 data path) and
// under the planner ("optimized", kernel=auto), plus the previous PR's
// optimized rows carried over from the newest lower-numbered BENCH_PR*.json
// ("previous") so the perf trajectory chains across PRs.
type HostBenchReport struct {
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu,omitempty"`
	Note       string `json:"note,omitempty"`

	// Build carries the VCS provenance of the benchmarking binary, so a
	// perf regression in the chain is attributable to a commit.
	Build esrp.BuildInfo `json:"build"`

	BaselineKernel  string `json:"baseline_kernel"`
	OptimizedKernel string `json:"optimized_kernel"`

	PreviousFile string       `json:"previous_file,omitempty"`
	Previous     []HostMetric `json:"previous,omitempty"`
	Baseline     []HostMetric `json:"baseline"`
	Optimized    []HostMetric `json:"optimized"`

	// Scaling holds the -scaling sweep: the solve and campaign-smoke
	// benchmarks re-measured at GOMAXPROCS ∈ {1, 2, 4, NumCPU} under
	// kernel=auto, with per-row speedup and parallel efficiency.
	Scaling []ScalingRow `json:"scaling,omitempty"`

	// Replay is the PR 9 row family: the same machine-parameter grid costed
	// the full way (one solve per machine point) and the replay way (one
	// recorded solve, one O(events) re-cost per machine point). Both rows
	// report cells/sec over the same grid; ReplaySpeedup is their ratio —
	// the throughput multiplier the replay engine buys machine sweeps.
	Replay        []HostMetric `json:"replay,omitempty"`
	ReplaySpeedup float64      `json:"replay_speedup,omitempty"`

	// Cache is the PR 10 row family: the campaign smoke grid swept cold
	// (solves + cache population), warm (pure result-tier hits, zero
	// solves), and warm at an uncached machine point (pure schedule-tier
	// re-costs, zero solves). CacheWarmSpeedup is warm-over-cold sweep
	// throughput — the multiplier the content-addressed cache buys an
	// unchanged re-run.
	Cache            []HostMetric `json:"cache,omitempty"`
	CacheWarmSpeedup float64      `json:"cache_warm_speedup,omitempty"`
}

// hostBenchCases mirrors bench_test.go's BenchmarkHostSolve fixtures — the
// reduced-scale Emilia analog plus the denser audikw analog, 16 nodes, fixed
// 60 iterations (unreachable tolerance) so the measured cost is the pure
// data path.
func hostBenchCases() []struct {
	name string
	cfg  esrp.Config
} {
	emilia := esrp.EmiliaLike(16, 16, 16, 923)
	audikw := esrp.AudikwLike(10, 10, 10, 3, 944)
	fixed := esrp.Config{A: emilia, B: esrp.RHSOnes(emilia.Rows), Nodes: 16, MaxIter: 60, Rtol: 1e-30}
	esr, esrpT20, imcr := fixed, fixed, fixed
	esr.Strategy, esr.Phi = esrp.StrategyESR, 1
	esrpT20.Strategy, esrpT20.T, esrpT20.Phi = esrp.StrategyESRP, 20, 1
	imcr.Strategy, imcr.T, imcr.Phi = esrp.StrategyIMCR, 20, 1
	audi := esrp.Config{A: audikw, B: esrp.RHSOnes(audikw.Rows), Nodes: 16, MaxIter: 60, Rtol: 1e-30}
	audiESRP := audi
	audiESRP.Strategy, audiESRP.T, audiESRP.Phi = esrp.StrategyESRP, 20, 1
	return []struct {
		name string
		cfg  esrp.Config
	}{
		{"solve/none", fixed},
		{"solve/esr", esr},
		{"solve/esrp-T20", esrpT20},
		{"solve/imcr-T20", imcr},
		{"solve/audikw-none", audi},
		{"solve/audikw-esrp-T20", audiESRP},
	}
}

// smokeGrid is the CI campaign smoke grid under a Poisson failure process
// (identical to bench_test.go's BenchmarkCampaignSweep), shared by the
// hostbench campaign row and the -scaling sweep.
func smokeGrid(kernel esrp.KernelKind) esrp.CampaignGrid {
	return esrp.CampaignGrid{
		Matrices:   []esrp.CampaignMatrix{{Name: "poisson2d-32", A: esrp.Poisson2D(32, 32)}},
		Nodes:      []int{8},
		Strategies: []esrp.Strategy{esrp.StrategyESRP, esrp.StrategyIMCR},
		Ts:         []int{10, 20},
		Phis:       []int{1},
		Seeds:      []int64{1, 2},
		Scenario:   esrp.FailureScenario{Model: esrp.ScenarioExponential, MTBF: 500, Horizon: 80},
		Kernel:     kernel,
	}
}

// benchCampaign measures the smoke grid's sweep throughput under the given
// kernel, at whatever GOMAXPROCS is currently in force.
func benchCampaign(kernel esrp.KernelKind) HostMetric {
	grid := smokeGrid(kernel)
	cells := 0
	start := time.Now()
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rep, err := esrp.RunCampaign(grid)
			if err != nil {
				b.Fatal(err)
			}
			cells += len(rep.Cells)
		}
	})
	elapsed := time.Since(start).Seconds()
	m := HostMetric{
		Name: "campaign/smoke-grid", GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp(),
	}
	if elapsed > 0 {
		m.CellsPerSec = float64(cells) / elapsed
	}
	return m
}

// benchSolve measures one solve configuration under the given kernel, at
// whatever GOMAXPROCS is currently in force.
func benchSolve(cfg esrp.Config, kernel esrp.KernelKind) HostMetric {
	cfg.Kernel = kernel
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := esrp.Solve(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	return HostMetric{
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), NsPerOp: r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp(),
	}
}

// instrumentSolve runs one telemetry-enabled solve and returns the
// barrier-wait share: Σ member wait ns over (Nodes × wall ns), i.e. the
// fraction of aggregate rank-goroutine time spent waiting at collectives.
// A separate pass from benchSolve so the clean rows stay uninstrumented.
func instrumentSolve(cfg esrp.Config, kernel esrp.KernelKind) float64 {
	cfg.Kernel = kernel
	st := esrp.NewBarrierStats(cfg.Nodes)
	cfg.HostStats = st
	start := time.Now()
	if _, err := esrp.Solve(cfg); err != nil {
		return 0
	}
	wall := time.Since(start).Nanoseconds()
	if wall <= 0 {
		return 0
	}
	return float64(st.TotalWaitNs()) / (float64(cfg.Nodes) * float64(wall))
}

// instrumentCampaign runs one telemetry-enabled sweep of the smoke grid and
// condenses the recorder: barrier-wait share normalized by the full
// concurrency capacity (workers × largest cluster × wall), successful
// steals, and the campaign-attributable GC pause delta.
func instrumentCampaign(kernel esrp.KernelKind) (share float64, steals, gcPauseNs int64) {
	grid := smokeGrid(kernel)
	rec := esrp.NewHostRecorder()
	grid.HostObs = rec
	if _, err := esrp.RunCampaign(grid); err != nil {
		return 0, 0, 0
	}
	tel := rec.Telemetry()
	maxNodes := 0
	for _, n := range grid.Nodes {
		if n > maxNodes {
			maxNodes = n
		}
	}
	if capacity := float64(len(tel.Workers)) * float64(maxNodes) * float64(tel.WallNs); capacity > 0 {
		share = float64(tel.BarrierWaitNs) / capacity
	}
	return share, tel.Steals, tel.GCPauseDeltaNs()
}

// runHostBench measures the host-side suite under the given kernel and
// returns the metric rows (solve cases plus the campaign sweep). Each row
// also carries the hostobs columns from one instrumented pass run after
// the clean timing benchmark.
func runHostBench(kernel esrp.KernelKind) []HostMetric {
	var out []HostMetric
	for _, c := range hostBenchCases() {
		fmt.Fprintf(os.Stderr, "esrpbench: hostbench %s kernel=%v...\n", c.name, kernel)
		m := benchSolve(c.cfg, kernel)
		m.Name = c.name
		m.BarrierWaitShare = instrumentSolve(c.cfg, kernel)
		out = append(out, m)
	}
	fmt.Fprintf(os.Stderr, "esrpbench: hostbench campaign sweep kernel=%v...\n", kernel)
	cm := benchCampaign(kernel)
	cm.BarrierWaitShare, cm.Steals, cm.GCPauseNs = instrumentCampaign(kernel)
	return append(out, cm)
}

// scalingProcs is the GOMAXPROCS sweep of -scaling: 1, 2, 4 and the host's
// CPU count, deduplicated in ascending order. Points past NumCPU are kept —
// on a small host they measure the oversubscribed regime honestly (the
// barrier's park-at-once policy is exactly for that shape) instead of
// silently narrowing the sweep.
func scalingProcs() []int {
	procs := []int{1, 2, 4, runtime.NumCPU()}
	sort.Ints(procs)
	out := procs[:1]
	for _, p := range procs[1:] {
		if p > out[len(out)-1] {
			out = append(out, p)
		}
	}
	return out
}

// runScaling sweeps GOMAXPROCS over the solve and campaign-smoke benchmarks
// (kernel=auto — the optimized data path) and derives speedup and parallel
// efficiency against each benchmark's 1-proc row. The solve rows exercise
// rank-goroutine parallelism inside one simulated cluster; the campaign
// rows exercise cell parallelism across clusters (Workers defaults to
// GOMAXPROCS, so the sweep scales the worker pool with the procs).
func runScaling() []ScalingRow {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	solveCase := hostBenchCases()[0] // solve/none: the pure data path
	var rows []ScalingRow
	baseNs := make(map[string]float64)
	numCPU := runtime.NumCPU()
	for _, p := range scalingProcs() {
		runtime.GOMAXPROCS(p)
		if p > numCPU {
			fmt.Fprintf(os.Stderr,
				"esrpbench: WARNING: GOMAXPROCS=%d exceeds the host's %d CPUs — this point is OVERSUBSCRIBED; "+
					"its ns/op measures scheduler contention, not parallel speedup\n", p, numCPU)
		}
		fmt.Fprintf(os.Stderr, "esrpbench: scaling GOMAXPROCS=%d...\n", p)

		sm := benchSolve(solveCase.cfg, esrp.KernelAuto)
		sm.BarrierWaitShare = instrumentSolve(solveCase.cfg, esrp.KernelAuto)
		cm := benchCampaign(esrp.KernelAuto)
		cm.BarrierWaitShare, cm.Steals, cm.GCPauseNs = instrumentCampaign(esrp.KernelAuto)
		for _, m := range []HostMetric{
			{Name: solveCase.name, NsPerOp: sm.NsPerOp, BarrierWaitShare: sm.BarrierWaitShare},
			{Name: cm.Name, NsPerOp: cm.NsPerOp, CellsPerSec: cm.CellsPerSec,
				BarrierWaitShare: cm.BarrierWaitShare, Steals: cm.Steals, GCPauseNs: cm.GCPauseNs}} {
			row := ScalingRow{
				Name: m.Name, GoMaxProcs: p, NumCPU: numCPU,
				NsPerOp: m.NsPerOp, CellsPerSec: m.CellsPerSec,
				BarrierWaitShare: m.BarrierWaitShare, Steals: m.Steals, GCPauseNs: m.GCPauseNs,
			}
			if p == 1 || baseNs[m.Name] == 0 {
				baseNs[m.Name] = float64(m.NsPerOp)
			}
			if m.NsPerOp > 0 {
				row.Speedup = baseNs[m.Name] / float64(m.NsPerOp)
				row.Efficiency = row.Speedup / float64(p)
			}
			rows = append(rows, row)
		}
	}
	return rows
}

var benchPRFile = regexp.MustCompile(`^BENCH_PR(\d+)\.json$`)

// latestBenchFile finds the newest BENCH_PR*.json below the current export's
// number in dir, so each perf PR chains onto the last one's measured rows
// without hand-updating any flag or workflow.
func latestBenchFile(dir string) (string, bool) {
	cur := 0
	if m := benchPRFile.FindStringSubmatch(hostBenchFile); m != nil {
		cur, _ = strconv.Atoi(m[1])
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", false
	}
	best, bestN := "", -1
	for _, e := range entries {
		m := benchPRFile.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, _ := strconv.Atoi(m[1])
		if n < cur && n > bestN {
			best, bestN = filepath.Join(dir, e.Name()), n
		}
	}
	return best, bestN >= 0
}

// writeHostBench runs the suite twice — kernel=csr as the baseline (the
// PR 4 data path) and kernel=auto as the optimized rows — and writes
// BENCH_PR<N>.json into dir. With scaling set it also sweeps GOMAXPROCS
// over the solve and campaign-smoke benchmarks into the export's scaling
// section. The previous PR's export (baselinePath, or the newest
// lower-numbered BENCH_PR*.json in the working directory when empty)
// contributes its optimized rows as the "previous" chain link.
func writeHostBench(dir, baselinePath, note string, scaling bool) (string, error) {
	if p := runtime.GOMAXPROCS(0); p > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr,
			"esrpbench: WARNING: GOMAXPROCS=%d exceeds the host's %d CPUs — every row below is OVERSUBSCRIBED\n",
			p, runtime.NumCPU())
	}
	rep := HostBenchReport{
		GoVersion:       runtime.Version(),
		GoMaxProcs:      runtime.GOMAXPROCS(0),
		NumCPU:          runtime.NumCPU(),
		Build:           esrp.CurrentBuild(),
		Note:            note,
		BaselineKernel:  esrp.KernelCSR.String(),
		OptimizedKernel: esrp.KernelAuto.String(),
		Baseline:        runHostBench(esrp.KernelCSR),
		Optimized:       runHostBench(esrp.KernelAuto),
	}
	rep.Replay, rep.ReplaySpeedup = runReplayBench()
	rep.Cache, rep.CacheWarmSpeedup = runCacheBench()
	if scaling {
		rep.Scaling = runScaling()
	}
	if baselinePath == "" {
		if found, ok := latestBenchFile("."); ok {
			baselinePath = found
		}
	}
	if baselinePath != "" {
		data, err := os.ReadFile(baselinePath)
		if err != nil {
			return "", fmt.Errorf("reading baseline: %w", err)
		}
		var prev HostBenchReport
		if err := json.Unmarshal(data, &prev); err != nil {
			return "", fmt.Errorf("parsing baseline: %w", err)
		}
		rep.PreviousFile = filepath.Base(baselinePath)
		rep.Previous = prev.Optimized
	}
	path := filepath.Join(dir, hostBenchFile)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
