package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"esrp/internal/campaign"
	"esrp/internal/ccache"
	"esrp/internal/cluster"
	"esrp/internal/core"
	"esrp/internal/faultsim"
	"esrp/internal/hostobs"
	"esrp/internal/matgen"
	"esrp/internal/obs"
	"esrp/internal/precond"
	"esrp/internal/replay"
	"esrp/internal/sparse"
)

// sweepMode selects which path of `esrpcampaign -cache` a sweep workload
// takes; the grid is the same for all three.
type sweepMode int

const (
	sweepCold   sweepMode = iota // fresh empty cache every pass: solve, record, write both tiers
	sweepWarm                    // populated cache, same model: result-tier hits only
	sweepRecost                  // populated cache plus machine points: schedule-tier reads and re-costs
)

// sweepSpec is the campaign grid. Like the single solves, every cell runs
// to a fixed iteration cap; -seed moves the matrix coefficients, and the
// failure timelines come from the fixed scenario seeds 1..seeds.
type sweepSpec struct {
	matrices func(seed int64) []campaign.MatrixSpec
	nodes    []int
	ts, phis []int
	seeds    int
	maxIter  int
	mtbf     float64
	// warmSweeps is how many back-to-back sweeps make one sweep-warm pass:
	// a single warm sweep is too short to time.
	warmSweeps int
}

func sweepSpecFor(sc string) sweepSpec {
	if sc == "tiny" {
		return sweepSpec{
			matrices: func(seed int64) []campaign.MatrixSpec {
				return []campaign.MatrixSpec{
					{Name: "poisson2d-16", A: matgen.Poisson2D(16, 16)},
					{Name: "emilia-6", A: matgen.EmiliaLike(6, 6, 6, seed)},
				}
			},
			nodes: []int{4}, ts: []int{10}, phis: []int{1}, seeds: 2,
			maxIter: 40, mtbf: 60, warmSweeps: 2,
		}
	}
	return sweepSpec{
		matrices: func(seed int64) []campaign.MatrixSpec {
			return []campaign.MatrixSpec{
				{Name: "poisson2d-48", A: matgen.Poisson2D(48, 48)},
				{Name: "emilia-12", A: matgen.EmiliaLike(12, 12, 12, seed)},
			}
		},
		nodes: []int{8, 16}, ts: []int{10, 20, 50}, phis: []int{1, 3}, seeds: 2,
		maxIter: 100, mtbf: 300, warmSweeps: 100,
	}
}

// machinePoints is the machine sweep of sweep-recost: latency ×{1,2,4,8} ×
// byte period ×{1,4}. Point 0 is the default model the cache was recorded
// under, which the correctness check relies on.
func machinePoints() []campaign.MachinePoint {
	var pts []campaign.MachinePoint
	for _, l := range []float64{1, 2, 4, 8} {
		for _, g := range []float64{1, 4} {
			m := cluster.DefaultCostModel()
			m.Latency *= l
			m.BytePeriod *= g
			pts = append(pts, campaign.MachinePoint{Name: fmt.Sprintf("lat%gx-byte%gx", l, g), Model: m})
		}
	}
	return pts
}

type sweepInstance struct {
	mode sweepMode
	spec sweepSpec
	seed int64
	tmp  string // parent of the cache directories

	grid  campaign.Grid // the sweep, without a cache
	dir   string        // warm modes: the populated cache
	cache *ccache.Cache
	// ref is the report every later sweep must reproduce byte for byte:
	// the populating cold sweep (warm modes) or the first pass (cold).
	ref *[sha256.Size]byte

	last *campaign.Report // the latest pass's first report, for the re-enactment
}

func newSweepInstance(mode sweepMode, sc string, seed int64, tmp string) *sweepInstance {
	return &sweepInstance{mode: mode, spec: sweepSpecFor(sc), seed: seed, tmp: tmp}
}

func (in *sweepInstance) openCache(tr *tracer) (*ccache.Cache, string, error) {
	dir, err := os.MkdirTemp(in.tmp, "ccache-")
	if err != nil {
		return nil, "", err
	}
	id := tr.begin("ccache.Open")
	cache, _, err := ccache.Open(dir, obs.CurrentBuild(), ccache.MismatchBypass)
	tr.end(id)
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	return cache, dir, nil
}

func (in *sweepInstance) setup(tr *tracer) error {
	id := tr.begin("matgen.generate")
	matrices := in.spec.matrices(in.seed)
	tr.end(id)
	// The scenario seeds do not follow -seed: how many failures strike, and
	// with them the work of a sweep, would change from seed to seed by more
	// than any bound a timing can hold.
	seeds := make([]int64, in.spec.seeds)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	in.grid = campaign.Grid{
		Matrices:   matrices,
		Nodes:      in.spec.nodes,
		Strategies: []core.Strategy{core.StrategyESR, core.StrategyESRP, core.StrategyIMCR},
		Ts:         in.spec.ts,
		Phis:       in.spec.phis,
		Seeds:      seeds,
		Scenario:   faultsim.Scenario{Model: faultsim.ModelExponential, MTBF: in.spec.mtbf, Horizon: in.spec.maxIter},
		Rtol:       unreachableRtol,
		MaxIter:    in.spec.maxIter,
		Workers:    runtime.GOMAXPROCS(0),
	}
	if in.mode == sweepCold {
		return nil
	}
	// The warm workloads read a cache a cold sweep populated.
	var err error
	if in.cache, in.dir, err = in.openCache(tr); err != nil {
		return err
	}
	g := in.grid
	g.Cache = in.cache
	id = tr.begin("campaign.Run(populate)")
	rep, err := campaign.Run(g)
	tr.end(id)
	if err != nil {
		return err
	}
	h := reportHash(rep)
	in.ref = &h
	return nil
}

func (in *sweepInstance) close() {
	if in.dir != "" {
		os.RemoveAll(in.dir)
	}
}

// reportHash digests the report's JSON export without the machine sweep,
// so cold, warm and recost reports compare equal exactly when their cells
// and aggregates are byte-identical.
func reportHash(rep *campaign.Report) [sha256.Size]byte {
	r := *rep
	r.Machines, r.MachineCells = nil, nil
	h := sha256.New()
	if err := r.WriteJSON(h); err != nil {
		panic(err) // a hash never fails to write
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

func (in *sweepInstance) pass(tr *tracer) (*passOut, error) {
	out := &passOut{}
	g := in.grid
	sweeps := 1
	switch in.mode {
	case sweepCold:
		// The directory is made and removed outside the timed region.
		cache, dir, err := in.openCache(nil)
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		g.Cache = cache
	case sweepWarm:
		g.Cache = in.cache
		sweeps = in.spec.warmSweeps
	case sweepRecost:
		g.Cache = in.cache
		g.Machines = machinePoints()
	}
	var recorders []*hostobs.CampaignRecorder
	var mu sync.Mutex // OnCellTrace runs on the campaign's worker goroutines
	sim := simClock{}
	if tr != nil {
		out.layer = layerMetrics{}
		g.TraceSample = 8 // every eighth cell is also traced on the simulated clock
		g.OnCellTrace = func(_ int, _ *campaign.Cell, t *obs.Trace) {
			mu.Lock()
			defer mu.Unlock()
			sim.add(t)
		}
	}

	ioBefore := g.Cache.Stats()
	reports := make([]*campaign.Report, 0, sweeps)
	m := startMeter()
	for k := 0; k < sweeps; k++ {
		if tr != nil {
			g.HostObs = hostobs.NewCampaignRecorder()
			recorders = append(recorders, g.HostObs)
		}
		id := tr.begin("campaign.Run")
		rep, err := campaign.Run(g)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		reports = append(reports, rep)
	}
	m.stop(out)

	for _, rep := range reports {
		in.check(rep, out)
	}
	rep := reports[0]
	for i := range rep.Cells {
		c := &rep.Cells[i]
		out.cells = append(out.cells, cellStat{
			Cell:      fmt.Sprintf("%s/n%d/%s/T%d/phi%d/seed%d", c.Matrix, c.Nodes, c.Strategy, c.T, c.Phi, c.Seed),
			Converged: c.Converged, Iterations: c.Iterations, TotalSteps: c.TotalSteps,
			SimTime: c.SimTime, RecoveryTime: c.RecoveryTime,
			BytesSent: c.BytesSent, ActiveNodes: c.ActiveNodes,
		})
	}
	in.last = rep
	if tr != nil {
		in.telemetry(recorders, rep, out.layer)
		io := g.Cache.Stats()
		out.layer["ccache.bytes_read"] = float64(io.BytesRead - ioBefore.BytesRead)
		out.layer["ccache.bytes_written"] = float64(io.BytesWritten - ioBefore.BytesWritten)
		sim.shares(out.layer)
	}
	return out, nil
}

// check counts one sweep's cells into the pass and holds the invariants
// that need no golden file: no cell errs, every cell runs its fixed
// iteration count, the report is byte-identical to the reference sweep's,
// and a re-cost under the recording model reproduces the solve's simulated
// time exactly.
func (in *sweepInstance) check(rep *campaign.Report, out *passOut) {
	nm := len(rep.Machines)
	for i := range rep.Cells {
		c := &rep.Cells[i]
		out.steps += c.TotalSteps
		switch {
		case c.Err != "":
			out.fail("cell %d (%s n%d %s T%d phi%d seed %d): %s", i, c.Matrix, c.Nodes, c.Strategy, c.T, c.Phi, c.Seed, c.Err)
		case c.Iterations != in.spec.maxIter:
			out.fail("cell %d: ran %d iterations, want %d", i, c.Iterations, in.spec.maxIter)
		}
		for mi := 0; mi < nm; mi++ {
			mc := &rep.MachineCells[i*nm+mi]
			switch {
			case mc.Err != "":
				out.fail("cell %d machine %s: %s", i, rep.Machines[mi].Name, mc.Err)
			case mi == 0 && c.Err == "" && math.Float64bits(mc.SimTime) != math.Float64bits(c.SimTime):
				out.fail("cell %d: re-cost under the recording model gives %.17g s, the solve gave %.17g s", i, mc.SimTime, c.SimTime)
			}
		}
	}
	out.units += max(len(rep.Cells), len(rep.MachineCells))
	h := reportHash(rep)
	if in.ref == nil {
		in.ref = &h
	} else if h != *in.ref {
		out.fail("report JSON differs from the reference cold sweep's")
	}
}

// telemetry folds the campaign recorders of a traced pass into the layer
// metrics.
func (in *sweepInstance) telemetry(recorders []*hostobs.CampaignRecorder, rep *campaign.Report, l layerMetrics) {
	var busy, capacity, barrierCap, barrierWait, cellsDone, affinity float64
	var snap hostobs.BarrierSnapshot // members of every sweep, appended
	maxNodes := 0
	for _, n := range in.spec.nodes {
		maxNodes = max(maxNodes, n)
	}
	for _, r := range recorders {
		tel := r.Telemetry()
		workers := float64(len(tel.Workers))
		busy += float64(tel.BusyNs)
		capacity += workers * float64(tel.WallNs)
		barrierCap += workers * float64(maxNodes) * float64(tel.WallNs)
		barrierWait += float64(tel.BarrierWaitNs)
		cellsDone += float64(tel.CellsDone)
		affinity += float64(tel.AffinityHits)
		l.add("campaign.steals", float64(tel.Steals))
		if c := tel.Cache; c != nil {
			l.add("ccache.result_hits", float64(c.ResultHits))
			l.add("ccache.schedule_hits", float64(c.ScheduleHits))
			l.add("ccache.misses", float64(c.Misses))
			l.add("ccache.corrupt", float64(c.Corrupt))
		}
		snap.Members = append(snap.Members, tel.Barrier.Members...)
	}
	l["campaign.cells"] = cellsDone
	l["campaign.worker_busy_share"] = ratio(busy, capacity)
	l["campaign.affinity_hit_ratio"] = ratio(affinity, cellsDone)
	// A machine sweep loads the schedule of a result hit too; count the
	// cells it served from the schedule tier.
	if in.mode == sweepRecost {
		l["ccache.schedule_hits"] = l["ccache.result_hits"]
	}
	l["ccache.hit_ratio"] = ratio(l["ccache.result_hits"], l["ccache.result_hits"]+l["ccache.misses"])
	_, parked := barrierWaits(snap)
	l["cluster.barrier_wait_share"] = ratio(barrierWait, barrierCap)
	l["cluster.park_share"] = ratio(float64(parked), barrierWait)

	// What the solver did is only the solver's work on the cold path; the
	// warm paths serve these figures from the cache without running core.
	if in.mode != sweepCold {
		return
	}
	for i := range rep.Cells {
		c := &rep.Cells[i]
		l.add("core.steps", float64(c.TotalSteps))
		l.add("core.iters", float64(c.Iterations))
		l.add("core.wasted_iters", float64(c.WastedIters))
		l.add("core.recoveries", float64(len(c.Recoveries)))
		l.add("core.sim_recovery_s", c.RecoveryTime)
		l.add("cluster.bytes", float64(c.BytesSent))
		l.add("aspmv.halo_bytes", float64(c.HaloBytes))
		l["core.max_node_mb"] = max(l["core.max_node_mb"], float64(c.MaxNodeBytes)/1e6)
	}
}

// layers walks the sweep's cell list on one goroutine and calls, in the
// order campaign.Run does, the public functions behind each step: the
// probe (scenario compile, matrix digest, cell key, result and schedule
// reads), then what the workers do — re-costs on sweep-recost; prepare,
// solve with recording, encode and both tier writes on sweep-cold. Solving
// every cell twice would take longer than the workload, so the cold path
// walks every seventh cell and scales by simulated steps.
func (in *sweepInstance) layers(tr *tracer, clean *passOut, m layerMetrics) error {
	rep := in.last
	sweeps := 1
	if in.mode == sweepWarm {
		sweeps = in.spec.warmSweeps
	}
	par := float64(min(runtime.GOMAXPROCS(0), in.grid.Workers))
	id := tr.begin("reenact sweep")
	defer tr.end(id)

	// The report encoders run after campaign.Run, outside run_s.
	var buf bytes.Buffer
	t0 := time.Now()
	if err := rep.WriteJSON(&buf); err != nil {
		return err
	}
	jsonLen := buf.Len()
	if err := rep.WriteCSV(&buf); err != nil {
		return err
	}
	m.addDur("campaign.encode_s", time.Since(t0))
	m["campaign.report_mb"] = float64(jsonLen) / 1e6

	// The cache the probe reads: the populated one, or (cold) an empty one.
	cache := in.cache
	if in.mode == sweepCold {
		t0 = time.Now()
		c, dir, err := in.openCache(nil)
		m.addDur("ccache.open_s", time.Since(t0))
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cache = c
	}

	type system struct {
		a      *sparse.CSR
		b      []float64
		digest [32]byte
	}
	systems := map[string]*system{}
	for _, ms := range in.grid.Matrices {
		ones := make([]float64, ms.A.Rows)
		for i := range ones {
			ones[i] = 1
		}
		sys := &system{a: ms.A, b: make([]float64, ms.A.Rows)}
		ms.A.MulVecRows(sys.b, ones, 0, ms.A.Rows) // campaign's default right-hand side
		t0 = time.Now()
		sys.digest = ccache.MatrixDigest(sys.a, sys.b)
		m.addDur("ccache.digest_s", time.Since(t0))
		systems[ms.Name] = sys
	}

	machines := machinePoints()
	type prepKey struct {
		matrix      string
		nodes, plan int // plan = the φ the communication plan is augmented by
	}
	preps := map[prepKey]*core.Prepared{}
	ws := core.NewWorkspace()
	const stride = 7
	var sampledSteps, allSteps float64
	var solveRec, solvePlain, encode, putSched, putRes, getSched, decode time.Duration
	var schedBytes, decodedBytes float64

	for i := range rep.Cells {
		c := &rep.Cells[i]
		sys := systems[c.Matrix]
		strat, err := core.ParseStrategy(c.Strategy)
		if err != nil {
			return err
		}
		sc := in.grid.Scenario
		sc.Nodes, sc.Seed = c.Nodes, c.Seed
		t0 = time.Now()
		events, err := sc.Compile()
		m.addDur("faultsim.compile_s", time.Since(t0))
		if err != nil {
			return err
		}
		m.add("faultsim.events", float64(len(events)))

		input := ccache.CellInput{
			Matrix: sys.digest, Nodes: c.Nodes, Strategy: strat, T: c.T, Phi: c.Phi, Seed: c.Seed,
			Events: events, Rtol: in.grid.Rtol, MaxIter: in.grid.MaxIter, MaxBlock: 10,
			Precond: precond.BlockJacobi, Kernel: sparse.KernelAuto,
		}
		t0 = time.Now()
		key := input.Key()
		m.addDur("ccache.key_s", time.Since(t0))
		t0 = time.Now()
		_, hit := cache.GetResult(key)
		m.addDur("ccache.get_result_s", time.Since(t0))
		if hit != (in.mode != sweepCold) {
			return fmt.Errorf("re-enactment: cell %d result-tier hit=%v: the walk's cell key no longer matches campaign's", i, hit)
		}
		allSteps += float64(c.TotalSteps)

		if in.mode == sweepRecost {
			before := cache.Stats().BytesRead
			t0 = time.Now()
			sched, ok := cache.GetSchedule(key)
			getSched += time.Since(t0)
			if !ok {
				return fmt.Errorf("re-enactment: cell %d has no cached schedule", i)
			}
			schedBytes += float64(cache.Stats().BytesRead - before)
			t0 = time.Now()
			for mi := range machines {
				if _, err := sched.Recost(replay.CostModel(machines[mi].Model)); err != nil {
					return err
				}
			}
			m.addDur("replay.recost_s", time.Since(t0))
			m.add("replay.events", float64(sched.NumEvents()))
			// GetSchedule decodes what it reads. Decoding every schedule a
			// second time would double the garbage the walk makes, so the
			// decoder's share is timed on every seventh and scaled by bytes.
			if i%stride == 0 {
				data, err := sched.EncodeBinary()
				if err != nil {
					return err
				}
				t0 = time.Now()
				if _, err := replay.DecodeBinary(data); err != nil {
					return err
				}
				decode += time.Since(t0)
				decodedBytes += float64(len(data))
			}
		}

		if in.mode != sweepCold {
			continue
		}
		pk := prepKey{matrix: c.Matrix, nodes: c.Nodes}
		if strat == core.StrategyESR || strat == core.StrategyESRP {
			pk.plan = c.Phi
		}
		cfg := core.Config{
			A: sys.a, B: sys.b, Nodes: c.Nodes, Strategy: strat, T: c.T, Phi: c.Phi,
			Rtol: in.grid.Rtol, MaxIter: in.grid.MaxIter, Failures: events,
		}
		if preps[pk] == nil {
			t0 = time.Now()
			prep, err := core.Prepare(cfg)
			m.addDur("core.prepare_s", time.Since(t0))
			if err != nil {
				return err
			}
			preps[pk] = prep
		}
		if i%stride != 0 {
			continue
		}
		cfg.Prepared, cfg.Workspace = preps[pk], ws
		t0 = time.Now()
		if _, err := core.Solve(cfg); err != nil {
			return err
		}
		solvePlain += time.Since(t0)
		rec := replay.NewRecorder()
		cfg.Record = rec
		t0 = time.Now()
		res, err := core.Solve(cfg)
		if err != nil {
			return err
		}
		sched := rec.Schedule()
		solveRec += time.Since(t0)
		sampledSteps += float64(res.TotalSteps)
		m.add("replay.events", float64(sched.NumEvents()))

		t0 = time.Now()
		data, err := sched.EncodeBinary()
		enc := time.Since(t0)
		if err != nil {
			return err
		}
		encode += enc
		schedBytes += float64(len(data))
		t0 = time.Now()
		if err := cache.PutSchedule(key, sched); err != nil {
			return err
		}
		putSched += max(time.Since(t0)-enc, 0) // PutSchedule encodes too
		entry := &ccache.ResultEntry{Model: cluster.DefaultCostModel(), Result: ccache.CellResult{
			Converged: res.Converged, Iterations: res.Iterations, TotalSteps: res.TotalSteps,
			RelResidual: res.RelResidual, SimTime: res.SimTime, RecoveryTime: res.RecoveryTime,
			WastedIters: res.WastedIters, Drift: res.Drift, MaxNodeBytes: res.MaxNodeBytes,
			HaloBytes: res.HaloBytes, BytesSent: res.BytesSent, ActiveNodes: res.ActiveNodes,
			Kernels: core.CondenseKernels(res.Kernels), Recoveries: res.Events,
		}}
		t0 = time.Now()
		if err := cache.PutResult(key, entry); err != nil {
			return err
		}
		putRes += time.Since(t0)
	}

	if in.mode == sweepCold {
		scale := ratio(allSteps, sampledSteps)
		m["core.solve_s"] = solveRec.Seconds() * scale
		m["replay.record_overhead_share"] = ratio((solveRec - solvePlain).Seconds(), solvePlain.Seconds())
		m["replay.events"] *= scale
		m["replay.encode_s"] = encode.Seconds() * scale
		m["replay.schedule_mb"] = schedBytes / 1e6 * scale
		m["ccache.put_schedule_s"] = putSched.Seconds() * scale
		m["ccache.put_result_s"] = putRes.Seconds() * scale
	}
	if in.mode == sweepRecost {
		m["replay.decode_s"] = decode.Seconds() * ratio(schedBytes, decodedBytes)
		m["ccache.get_schedule_s"] = max(getSched.Seconds()-m["replay.decode_s"], 0)
		m["replay.schedule_mb"] = schedBytes / 1e6
	}
	m["replay.recost_ns_per_event"] = ratio(m["replay.recost_s"]*1e9, m["replay.events"]*float64(len(machines)))

	// The probe runs on one goroutine, once per sweep; the workers' part is
	// busy time spread over min(GOMAXPROCS, Workers) of them.
	serial := []string{"faultsim.compile_s", "ccache.digest_s", "ccache.key_s", "ccache.get_result_s", "ccache.get_schedule_s", "replay.decode_s"}
	parallel := []string{"replay.recost_s", "core.prepare_s", "core.solve_s", "replay.encode_s", "ccache.put_schedule_s", "ccache.put_result_s"}
	attributed := 0.0
	m["faultsim.events"] *= float64(sweeps)
	for _, name := range serial {
		m[name] *= float64(sweeps)
		attributed += m[name]
		tr.record(name, time.Duration(m[name]*float64(time.Second)))
	}
	for _, name := range parallel {
		attributed += m[name] / par
		tr.record(name, time.Duration(m[name]/par*float64(time.Second)))
	}
	m["campaign.run_s"] = clean.wall.Seconds()
	tr.record("campaign.other", max(clean.wall-time.Duration(attributed*float64(time.Second)), 0))
	m["campaign.other_share"] = ratio(clean.wall.Seconds()-attributed, clean.wall.Seconds())
	return nil
}
