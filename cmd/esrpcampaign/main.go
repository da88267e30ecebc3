// Command esrpcampaign sweeps a whole experiment grid — strategy ×
// checkpoint interval T × redundancy φ × matrix × node count × scenario
// seed — concurrently across host cores, injecting stochastic multi-failure
// scenarios into every cell, and exports the per-cell results and seed
// aggregates as JSON (and optionally CSV).
//
// Examples:
//
//	# 2 strategies × 2 intervals × 3 seeds under a Poisson failure process
//	esrpcampaign -gen emilia -n 16 -nodes 16 -strategies esrp,imcr \
//	             -ts 20,50 -phis 1 -seeds 3 -mtbf 4000 -horizon 400
//
//	# correlated blade failures against a finite spare pool
//	esrpcampaign -gen poisson3d -n 16 -nodes 12 -strategies esrp \
//	             -ts 20 -phis 4 -seeds 5 -mtbf 2000 -group 4 -group-prob 0.5 \
//	             -spares 4 -json campaign.json -csv campaign.csv
//
// The grid is deterministic: the same flags always produce byte-identical
// JSON, regardless of -workers.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"esrp"
	"esrp/internal/campaign"
	"esrp/internal/faultsim"
	"esrp/internal/obs"
	"esrp/internal/profiling"
)

func main() {
	var (
		gens = flag.String("gen", "poisson2d", "comma-separated matrix generators: poisson2d|poisson3d|emilia|audikw|banded")
		n    = flag.Int("n", 32, "generator grid scale")
		seed = flag.Int64("matrix-seed", 1, "generator seed")

		nodesCSV   = flag.String("nodes", "8", "comma-separated simulated cluster sizes")
		strategies = flag.String("strategies", "esrp,imcr", "comma-separated strategies: none|esr|esrp|imcr")
		tsCSV      = flag.String("ts", "20", "comma-separated checkpoint intervals T")
		phisCSV    = flag.String("phis", "1", "comma-separated redundancy counts φ")
		seeds      = flag.Int("seeds", 3, "number of scenario seeds (1..N)")

		model     = flag.String("model", "exp", "failure process: exp|weibull|fixed (fixed uses -events)")
		mtbf      = flag.Float64("mtbf", 5000, "per-node mean iterations between failures")
		shape     = flag.Float64("shape", 1, "Weibull shape k (model=weibull)")
		horizon   = flag.Int("horizon", 200, "last iteration failures may strike (set near the expected iteration count; 0 = 200)")
		group     = flag.Int("group", 1, "correlated blade width (adjacent ranks failing together)")
		groupProb = flag.Float64("group-prob", 0, "probability a failure takes down its whole blade")
		maxEvents = flag.Int("max-events", 0, "cap on events per cell (0 = none)")
		events    = flag.String("events", "", "fixed schedule for -model fixed: iter:r0-r1;iter:r0;... (e.g. 20:2-3;50:5)")

		spares = flag.Int("spares", 0, "replacement-node pool for ESR/ESRP cells (0 = unlimited); exhaustion falls back to the no-spare shrink")

		rtol    = flag.Float64("rtol", 1e-8, "outer relative tolerance")
		maxIter = flag.Int("maxiter", 0, "iteration cap (0 = solver default)")
		workers = flag.Int("workers", 0, "concurrent cells on the host (0 = GOMAXPROCS)")

		sweepMachine = flag.String("sweep-machine", "", "machine-parameter sweep on the replay engine: semicolon-separated LogGP value lists crossed into a grid, e.g. \"L=1x,4x,16x;G=1x,8x\" (keys L|o|G|f; absolute seconds or Nx multipliers of the default model). Each grid cell is solved and recorded once, then re-costed per machine point in O(events); results land in the report's machine_cells")
		schedulesDir = flag.String("schedules", "", "directory for the per-cell recorded schedules (framed compact binary, replayable via esrp.ReadScheduleFile); requires -sweep-machine")
		machineSpec  = flag.String("machine", "", "override the base machine model for every cell: same syntax as -sweep-machine but naming exactly one point, e.g. \"L=2x;G=0.5x\". Against a warm -cache this is served entirely from the schedule tier (re-cost, no solves)")

		cachePath     = flag.String("cache", "", "persistent content-addressed cell cache directory: completed cells are reused across runs (result tier), machine-model changes are re-costed from recorded schedules (schedule tier), and interrupted sweeps resume — partial or corrupt entries are detected and recomputed")
		cacheMismatch = flag.String("cache-mismatch", "bypass", "when -cache was written by a different build: bypass (run cold, leave the directory untouched) or refresh (discard its entries and restamp)")

		jsonPath = flag.String("json", "-", "JSON output path (- = stdout)")
		csvPath  = flag.String("csv", "", "optional CSV output path (one row per cell)")
		quiet    = flag.Bool("q", false, "suppress the aggregate table, summary, and live progress on stderr")
		verbose  = flag.Bool("v", false, "extend the live progress meter with host-engine counters (cells done per worker); report JSON/CSV are byte-identical either way")

		metricsPath   = flag.String("metrics", "", "write a Prometheus textfile snapshot of the campaign counters (plus host-engine telemetry) to this path")
		traceSample   = flag.Int("trace-sample", 0, "trace every N-th grid cell (0 = off); traces land in -trace-dir")
		traceDir      = flag.String("trace-dir", "traces", "directory for sampled cell traces (Chrome trace_event JSON)")
		hostTracePath = flag.String("host-trace", "", "write a wall-clock Chrome trace of the host workers (one span per cell) to this path")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	stop, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatalf("%v", err)
	}
	stopProfile = stop // fatalf finishes the profiles before os.Exit
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintf(os.Stderr, "esrpcampaign: %v\n", err)
		}
	}()

	grid, err := buildGrid(gridFlags{
		gens: *gens, n: *n, seed: *seed,
		nodes: *nodesCSV, strategies: *strategies, ts: *tsCSV, phis: *phisCSV, seeds: *seeds,
		model: *model, mtbf: *mtbf, shape: *shape, horizon: *horizon,
		group: *group, groupProb: *groupProb, maxEvents: *maxEvents, events: *events,
		spares: *spares, rtol: *rtol, maxIter: *maxIter, workers: *workers,
	})
	if err != nil {
		fatalf("%v", err)
	}

	if *machineSpec != "" {
		points, err := parseMachineSweep(*machineSpec, esrp.DefaultCostModel())
		if err != nil {
			fatalf("bad -machine: %v", err)
		}
		if len(points) != 1 {
			fatalf("-machine must name exactly one machine point, got %d (use -sweep-machine for grids)", len(points))
		}
		model := points[0].Model
		grid.CostModel = &model
	}
	if *sweepMachine != "" {
		machines, err := parseMachineSweep(*sweepMachine, esrp.DefaultCostModel())
		if err != nil {
			fatalf("bad -sweep-machine: %v", err)
		}
		grid.Machines = machines
	}
	if *cachePath != "" {
		var policy esrp.CacheMismatchPolicy
		switch *cacheMismatch {
		case "bypass":
			policy = esrp.CacheMismatchBypass
		case "refresh":
			policy = esrp.CacheMismatchRefresh
		default:
			fatalf("bad -cache-mismatch %q (want bypass or refresh)", *cacheMismatch)
		}
		cache, note, err := esrp.OpenCampaignCache(*cachePath, policy)
		if err != nil {
			fatalf("opening cache: %v", err)
		}
		if note != "" {
			fmt.Fprintf(os.Stderr, "esrpcampaign: %s\n", note)
		}
		grid.Cache = cache // nil after a bypassed mismatch: the run stays cold
	}
	if *schedulesDir != "" {
		if len(grid.Machines) == 0 {
			fatalf("-schedules requires -sweep-machine (schedules are recorded by the machine sweep)")
		}
		if err := os.MkdirAll(*schedulesDir, 0o755); err != nil {
			fatalf("%v", err)
		}
		dir := *schedulesDir
		grid.OnCellSchedule = func(index int, c *esrp.CampaignCell, s *esrp.Schedule) {
			// Delivered concurrently, but every cell index gets its own file,
			// so the writes never contend. The file format is the cache's
			// framed schedule encoding — one serializer for schedules on disk.
			path := filepath.Join(dir, fmt.Sprintf("cell-%04d-%s-%s-T%d-seed%d.sched", index, c.Matrix, c.Strategy, c.T, c.Seed))
			if err := esrp.WriteScheduleFile(path, s); err != nil {
				fmt.Fprintf(os.Stderr, "esrpcampaign: schedule %s: %v\n", path, err)
			}
		}
	}

	if *traceSample > 0 {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fatalf("%v", err)
		}
		grid.TraceSample = *traceSample
		dir := *traceDir
		grid.OnCellTrace = func(index int, c *esrp.CampaignCell, tr *esrp.Trace) {
			// Sampled concurrently, but every cell index gets its own file,
			// so the writes never contend.
			path := filepath.Join(dir, fmt.Sprintf("cell-%04d-%s-%s-seed%d.trace.json", index, c.Matrix, c.Strategy, c.Seed))
			if err := obs.WriteChromeFile(path, tr); err != nil {
				fmt.Fprintf(os.Stderr, "esrpcampaign: trace %s: %v\n", path, err)
			}
		}
	}
	// Host telemetry rides along whenever something consumes it: the -v
	// meter, the host trace, the metrics textfile, or the cache hit/miss
	// accounting. The report JSON/CSV bytes are identical with the
	// recorder on or off (pinned by tests).
	var hostRec *esrp.HostRecorder
	if *verbose || *hostTracePath != "" || *metricsPath != "" || grid.Cache != nil {
		hostRec = esrp.NewHostRecorder()
		grid.HostObs = hostRec
	}

	if !*quiet {
		start := time.Now()
		var progressMu sync.Mutex
		hi := 0
		grid.Progress = func(done, total int) {
			progressMu.Lock()
			defer progressMu.Unlock()
			// The engine delivers each done value exactly once, but worker
			// goroutines can overtake each other between the counter
			// increment and this callback; redraw only on a new high-water
			// mark so the meter never runs backwards.
			if done <= hi {
				return
			}
			hi = done
			elapsed := time.Since(start).Seconds()
			rate := float64(done) / math.Max(elapsed, 1e-9)
			eta := time.Duration(float64(total-done) / rate * float64(time.Second))
			cacheMeter := ""
			if grid.Cache != nil {
				rh, sh, ms := hostRec.LiveCacheHits()
				cacheMeter = fmt.Sprintf(" cache %d+%d hit/%d miss", rh, sh, ms)
			}
			if *verbose {
				counts := make([]string, 0, 8)
				for _, c := range hostRec.LiveWorkerCells() {
					counts = append(counts, strconv.FormatInt(c, 10))
				}
				fmt.Fprintf(os.Stderr, "\rcells %d/%d (%.1f/s, ETA %v) workers [%s]%s   ",
					done, total, rate, eta.Round(time.Second), strings.Join(counts, " "), cacheMeter)
				return
			}
			fmt.Fprintf(os.Stderr, "\rcells %d/%d (%.1f/s, ETA %v)%s   ", done, total, rate, eta.Round(time.Second), cacheMeter)
		}
	}

	rep, err := esrp.RunCampaign(*grid)
	if err != nil {
		fatalf("%v", err)
	}

	if !*quiet {
		fmt.Fprintln(os.Stderr) // terminate the progress line
		fmt.Fprint(os.Stderr, esrp.RenderCampaignTable(rep))
		fmt.Fprint(os.Stderr, esrp.CampaignSummary(rep))
	}
	if err := writeOut(*jsonPath, rep.WriteJSON); err != nil {
		fatalf("writing JSON: %v", err)
	}
	if *csvPath != "" {
		if err := writeOut(*csvPath, rep.WriteCSV); err != nil {
			fatalf("writing CSV: %v", err)
		}
	}
	if *hostTracePath != "" {
		if err := obs.WriteChromeFile(*hostTracePath, esrp.BuildHostTrace(hostRec, rep, esrp.CurrentBuild())); err != nil {
			fatalf("writing host trace: %v", err)
		}
	}
	if *metricsPath != "" {
		if err := writeOut(*metricsPath, func(w io.Writer) error {
			if err := rep.WriteMetrics(w, esrp.CurrentBuild()); err != nil {
				return err
			}
			// Host-engine telemetry lands in the same textfile, so one
			// scrape target carries the simulated and the wall-clock view.
			tel := hostRec.Telemetry()
			return tel.WritePrometheus(w)
		}); err != nil {
			fatalf("writing metrics: %v", err)
		}
	}
}

// gridFlags bundles the parsed flag values for buildGrid, keeping the flag
// wiring testable.
type gridFlags struct {
	gens       string
	n          int
	seed       int64
	nodes      string
	strategies string
	ts         string
	phis       string
	seeds      int
	model      string
	mtbf       float64
	shape      float64
	horizon    int
	group      int
	groupProb  float64
	maxEvents  int
	events     string
	spares     int
	rtol       float64
	maxIter    int
	workers    int
}

func buildGrid(f gridFlags) (*esrp.CampaignGrid, error) {
	matrices, err := campaign.ParseList(f.gens, func(gen string) (campaign.MatrixSpec, error) {
		return campaign.Generate(gen, f.n, f.seed)
	})
	if err != nil {
		return nil, fmt.Errorf("bad -gen: %w", err)
	}
	nodes, err := campaign.ParseList(f.nodes, strconv.Atoi)
	if err != nil {
		return nil, fmt.Errorf("bad -nodes: %w", err)
	}
	ts, err := campaign.ParseList(f.ts, strconv.Atoi)
	if err != nil {
		return nil, fmt.Errorf("bad -ts: %w", err)
	}
	phis, err := campaign.ParseList(f.phis, strconv.Atoi)
	if err != nil {
		return nil, fmt.Errorf("bad -phis: %w", err)
	}
	strats, err := campaign.ParseList(f.strategies, esrp.ParseStrategy)
	if err != nil {
		return nil, fmt.Errorf("bad -strategies: %w", err)
	}
	if f.seeds < 1 {
		return nil, fmt.Errorf("need at least 1 seed, got %d", f.seeds)
	}
	seedList := make([]int64, f.seeds)
	for i := range seedList {
		seedList[i] = int64(i + 1)
	}

	mdl, err := esrp.ParseScenarioModel(f.model)
	if err != nil {
		return nil, err
	}
	horizon := f.horizon
	if horizon < 0 {
		return nil, fmt.Errorf("bad -horizon: must be ≥ 0 (0 = 200), got %d", horizon)
	}
	if horizon == 0 {
		horizon = 200
	}
	scenario := esrp.FailureScenario{
		Model: mdl, MTBF: f.mtbf, Shape: f.shape, Horizon: horizon,
		GroupSize: f.group, GroupProb: f.groupProb, MaxEvents: f.maxEvents,
	}
	if mdl == esrp.ScenarioFixed {
		// The largest cluster bounds the ranks here, before a range is
		// expanded; the grid refuses a rank past a smaller one before any
		// cell runs.
		scenario.Schedule, err = faultsim.ParseSchedule(f.events, slices.Max(nodes))
		if err != nil {
			return nil, fmt.Errorf("bad -events: %w", err)
		}
	}

	return &esrp.CampaignGrid{
		Matrices:   matrices,
		Nodes:      nodes,
		Strategies: strats,
		Ts:         ts,
		Phis:       phis,
		Seeds:      seedList,
		Scenario:   scenario,
		Spares:     f.spares,
		Rtol:       f.rtol,
		MaxIter:    f.maxIter,
		Workers:    f.workers,
	}, nil
}

func writeOut(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stopProfile finishes any active -cpuprofile/-memprofile capture; fatalf
// calls it so error exits (os.Exit skips defers) still produce readable
// profiles.
var stopProfile func() error

func fatalf(format string, args ...any) {
	if stopProfile != nil {
		if err := stopProfile(); err != nil {
			fmt.Fprintf(os.Stderr, "esrpcampaign: %v\n", err)
		}
	}
	fmt.Fprintf(os.Stderr, "esrpcampaign: "+format+"\n", args...)
	os.Exit(1)
}
