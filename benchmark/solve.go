package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"esrp/internal/aspmv"
	"esrp/internal/cluster"
	"esrp/internal/core"
	"esrp/internal/dist"
	"esrp/internal/hostobs"
	"esrp/internal/matgen"
	"esrp/internal/obs"
	"esrp/internal/precond"
	"esrp/internal/replay"
	"esrp/internal/sparse"
	"esrp/internal/vec"
)

// solveCase is one solve of a pass.
type solveCase struct {
	name     string
	strategy core.Strategy
	t, phi   int
	spares   int
}

// solveSpec describes a single-solve workload. Every solve runs exactly
// maxIter productive iterations (the tolerance is unreachable), so a pass
// is the same amount of work at every seed; the seed changes the matrix
// coefficients, the right-hand side and where the failures strike.
type solveSpec struct {
	gen     func(seed int64) *sparse.CSR
	nodes   int
	maxIter int
	cases   []solveCase
	// eventGap > 0 puts six failure events on every solve's timeline, at
	// iterations 25, 25+eventGap, … (see stormTimeline); 0 is failure-free.
	eventGap int
}

type solveKind int

const (
	solveFat solveKind = iota
	solveWide
	recoveryStorm
)

func solveSpecFor(kind solveKind, sc string) solveSpec {
	tiny := sc == "tiny"
	switch kind {
	case solveFat:
		spec := solveSpec{
			gen:   func(seed int64) *sparse.CSR { return matgen.EmiliaLike(24, 24, 24, seed) },
			nodes: 4, maxIter: 300,
			cases: []solveCase{
				{name: "none", strategy: core.StrategyNone},
				{name: "esrp-T20-phi1", strategy: core.StrategyESRP, t: 20, phi: 1},
			},
		}
		if tiny {
			spec.gen = func(seed int64) *sparse.CSR { return matgen.EmiliaLike(10, 10, 10, seed) }
			spec.maxIter = 45
		}
		return spec
	case solveWide:
		spec := solveSpec{
			gen:   func(seed int64) *sparse.CSR { return matgen.EmiliaLike(16, 16, 32, seed) },
			nodes: 128, maxIter: 200,
			cases: []solveCase{
				{name: "none", strategy: core.StrategyNone},
				{name: "esr-phi3", strategy: core.StrategyESR, phi: 3},
				{name: "esrp-T20-phi3", strategy: core.StrategyESRP, t: 20, phi: 3},
				{name: "imcr-T20-phi3", strategy: core.StrategyIMCR, t: 20, phi: 3},
			},
		}
		if tiny {
			spec.gen = func(seed int64) *sparse.CSR { return matgen.EmiliaLike(8, 8, 16, seed) }
			spec.nodes, spec.maxIter = 32, 45
		}
		return spec
	default:
		spec := solveSpec{
			gen:   func(seed int64) *sparse.CSR { return matgen.AudikwLike(10, 10, 10, 3, seed) },
			nodes: 8, maxIter: 145,
			cases: []solveCase{
				{name: "esr", strategy: core.StrategyESR, phi: 3},
				{name: "esrp-T20", strategy: core.StrategyESRP, t: 20, phi: 3},
				{name: "imcr-T20", strategy: core.StrategyIMCR, t: 20, phi: 3},
				// Four events drain the pool of 12, the last two shrink the cluster.
				{name: "esrp-T20-spares12", strategy: core.StrategyESRP, t: 20, phi: 3, spares: 12},
			},
			eventGap: 20,
		}
		if tiny {
			// Fewer iterations: the toy system's recurrence residual would
			// otherwise fall below even the unreachable tolerance.
			spec.gen = func(seed int64) *sparse.CSR { return matgen.AudikwLike(8, 8, 8, 3, seed) }
			spec.maxIter, spec.eventGap = 85, 10
		}
		return spec
	}
}

// stormTimeline is six events of three contiguous ranks, gap iterations
// apart from iteration 25 on; the block starts come from the seed. The last
// block starts below rank 3, so it still exists after the finite-pool case
// has shrunk the cluster to five nodes and every seed takes the same
// recovery modes.
func stormTimeline(seed int64, nodes, gap int) []core.FailureSpec {
	rng := rand.New(rand.NewSource(seed))
	var evs []core.FailureSpec
	for k := 0; k < 6; k++ {
		span := nodes - 2
		if k == 5 {
			span = 3
		}
		s := rng.Intn(span)
		evs = append(evs, core.FailureSpec{Iteration: 25 + gap*k, Ranks: []int{s, s + 1, s + 2}})
	}
	return evs
}

// unreachableRtol keeps every solve running to its iteration cap.
const unreachableRtol = 1e-30

type solveInstance struct {
	spec solveSpec
	seed int64

	a    *sparse.CSR
	b    []float64
	cfgs []core.Config // one per case, Prepared filled in
	ws   *core.Workspace
}

func newSolveInstance(kind solveKind, sc string, seed int64) *solveInstance {
	return &solveInstance{spec: solveSpecFor(kind, sc), seed: seed}
}

// augPhi is the augmentation a strategy bakes into its communication plan:
// cases with equal augPhi share one Prepared context.
func augPhi(c solveCase) int {
	if c.strategy == core.StrategyESR || c.strategy == core.StrategyESRP {
		return c.phi
	}
	return 0
}

func (in *solveInstance) setup(tr *tracer) error {
	id := tr.begin("matgen.generate")
	in.a = in.spec.gen(in.seed)
	in.b, _ = matgen.RHSForSolution(in.a, in.seed+1)
	tr.end(id)

	var failures []core.FailureSpec
	if in.spec.eventGap > 0 {
		failures = stormTimeline(in.seed, in.spec.nodes, in.spec.eventGap)
	}
	preps := map[int]*core.Prepared{}
	in.cfgs = nil
	for _, c := range in.spec.cases {
		cfg := core.Config{
			A: in.a, B: in.b, Nodes: in.spec.nodes,
			Rtol: unreachableRtol, MaxIter: in.spec.maxIter,
			Strategy: c.strategy, T: c.t, Phi: c.phi, Spares: c.spares,
			Failures: failures,
		}
		prep := preps[augPhi(c)]
		if prep == nil {
			id := tr.begin("core.Prepare")
			var err error
			prep, err = core.Prepare(cfg)
			tr.end(id)
			if err != nil {
				return fmt.Errorf("prepare %s: %w", c.name, err)
			}
			preps[augPhi(c)] = prep
		}
		cfg.Prepared = prep
		in.cfgs = append(in.cfgs, cfg)
	}
	in.ws = core.NewWorkspace()
	return nil
}

func (in *solveInstance) close() {}

func (in *solveInstance) pass(tr *tracer) (*passOut, error) {
	out := &passOut{}
	var barrier *hostobs.BarrierStats
	sim := simClock{}
	if tr != nil {
		out.layer = layerMetrics{}
		barrier = hostobs.NewBarrierStats(in.spec.nodes)
	}
	var results []*core.Result
	var recorders []*replay.Recorder

	m := startMeter()
	for i := range in.cfgs {
		cfg := in.cfgs[i]
		cfg.Workspace = in.ws
		if tr != nil {
			cfg.HostStats = barrier
			cfg.Observe = &obs.Options{Trace: true}
			cfg.Record = replay.NewRecorder()
			recorders = append(recorders, cfg.Record)
		}
		t0 := time.Now()
		id := tr.begin("core.Solve")
		res, err := core.Solve(cfg)
		tr.end(id)
		out.cellWall = append(out.cellWall, time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("solve %s: %w", in.spec.cases[i].name, err)
		}
		results = append(results, res)
	}
	m.stop(out)

	for i, res := range results {
		name := in.spec.cases[i].name
		out.cells = append(out.cells, cellStat{
			Cell: name, Converged: res.Converged, Iterations: res.Iterations, TotalSteps: res.TotalSteps,
			SimTime: res.SimTime, RecoveryTime: res.RecoveryTime,
			BytesSent: res.BytesSent, MsgsSent: res.MsgsSent, ActiveNodes: res.ActiveNodes,
		})
		out.units++
		out.steps += res.TotalSteps
		switch {
		case res.Iterations != in.spec.maxIter:
			out.fail("%s: ran %d iterations, want %d", name, res.Iterations, in.spec.maxIter)
		case !(res.RelResidual < 1): // also catches NaN
			out.fail("%s: relative residual %g after %d iterations", name, res.RelResidual, res.Iterations)
		case in.spec.eventGap == 0 && res.RelResidual != results[0].RelResidual:
			// Redundancy only adds traffic: failure-free, every strategy
			// walks the trajectory of plain PCG bit for bit.
			out.fail("%s: failure-free residual %g differs from %s's %g", name, res.RelResidual, in.spec.cases[0].name, results[0].RelResidual)
		case in.spec.eventGap > 0 && len(res.Events) != len(in.cfgs[i].Failures):
			out.fail("%s: %d of %d failure events fired", name, len(res.Events), len(in.cfgs[i].Failures))
		}
		if tr == nil {
			continue
		}
		l := out.layer
		l.add("core.steps", float64(res.TotalSteps))
		l.add("core.iters", float64(res.Iterations))
		l.add("core.wasted_iters", float64(res.WastedIters))
		l.add("core.recoveries", float64(len(res.Events)))
		l.add("core.sim_recovery_s", res.RecoveryTime)
		l["core.max_node_mb"] = max(l["core.max_node_mb"], float64(res.MaxNodeBytes)/1e6)
		l.add("cluster.msgs", float64(res.MsgsSent))
		l.add("cluster.bytes", float64(res.BytesSent))
		l.add("aspmv.halo_bytes", float64(res.HaloBytes))
		l.add("replay.events", float64(recorders[i].Schedule().NumEvents()))
		sim.add(res.Trace)
	}
	if tr != nil {
		sim.shares(out.layer)
		// Σ member wait over members × wall: the fraction of aggregate rank
		// time spent waiting at collectives.
		wait, parked := barrierWaits(barrier.Snapshot())
		out.layer["cluster.barrier_wait_share"] = ratio(float64(wait), float64(in.spec.nodes)*float64(out.wall))
		out.layer["cluster.park_share"] = ratio(float64(parked), float64(wait))
	}
	return out, nil
}

// simClock sums the leaf span time of simulated-clock traces by category
// ("compute", "comm", "resilience").
type simClock map[string]float64

func (c simClock) add(t *obs.Trace) {
	for kind, d := range t.Totals() {
		if kind.Leaf() {
			c[kind.Category()] += d
		}
	}
}

// shares reports which part of the simulated time was compute and which
// communication; the rest is resilience (checkpoints, recovery gathers).
func (c simClock) shares(l layerMetrics) {
	total := c["compute"] + c["comm"] + c["resilience"]
	l["core.sim_compute_share"] = ratio(c["compute"], total)
	l["core.sim_comm_share"] = ratio(c["comm"], total)
}

// barrierWaits sums the barrier wait histograms over members: all waiting,
// and the part of it spent parked rather than spinning or yielding.
func barrierWaits(snap hostobs.BarrierSnapshot) (total, parked int64) {
	for _, mw := range snap.Members {
		for r, w := range mw.Wait {
			total += w.SumNs
			if hostobs.Regime(r) == hostobs.RegimePark {
				parked += w.SumNs
			}
		}
	}
	return total, parked
}

// rankLayers is one rank's share of a solve context, rebuilt through the
// layers' own constructors.
type rankLayers struct {
	kern sparse.Kernel
	pc   precond.Preconditioner
	m, g int
	nnz  int

	x, r, z, p, q, pg []float64
}

// buildLayers rebuilds what core.Prepare builds for one case — partition,
// plan, local matrices with their kernels, preconditioners — timing each
// layer's constructor, so core.prepare_s decomposes.
func (in *solveInstance) buildLayers(cfg core.Config, m layerMetrics) (*dist.Partition, *aspmv.Plan, []rankLayers, error) {
	part, err := core.PartitionFor(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	t0 := time.Now()
	plan, err := aspmv.NewPlan(cfg.A, part)
	if err == nil && (cfg.Strategy == core.StrategyESR || cfg.Strategy == core.StrategyESRP) {
		err = plan.Augment(cfg.Phi)
	}
	m.addDur("aspmv.plan_s", time.Since(t0))
	if err != nil {
		return nil, nil, nil, err
	}
	ranks := make([]rankLayers, cfg.Nodes)
	for s := range ranks {
		lo, hi := part.Lo(s), part.Hi(s)
		t0 = time.Now()
		pc, err := precond.Build(precond.BlockJacobi, cfg.A, lo, hi, 10)
		m.addDur("precond.build_s", time.Since(t0))
		if err != nil {
			return nil, nil, nil, err
		}
		t0 = time.Now()
		local, err := sparse.NewLocal(cfg.A, lo, hi, plan.Ghost(s))
		if err != nil {
			return nil, nil, nil, err
		}
		kern := sparse.BuildKernel(local, sparse.KernelAuto)
		m.addDur("sparse.local_build_s", time.Since(t0))

		n, g := hi-lo, local.G()
		rk := rankLayers{kern: kern, pc: pc, m: n, g: g, nnz: local.NNZ()}
		rk.x, rk.q, rk.z = make([]float64, n), make([]float64, n), make([]float64, n)
		rk.r = append([]float64(nil), cfg.B[lo:hi]...)
		rk.p = append([]float64(nil), rk.r...)
		rk.pg = make([]float64, n+g)
		ranks[s] = rk
	}
	return part, plan, ranks, nil
}

// arithSink keeps the re-enacted reductions alive.
var arithSink float64

// reenactArithmetic replays the local arithmetic of steps PCG iterations:
// per iteration and rank, in the solver's call order, the SpMV input copy
// and product, p·q, the paired x/r update, the preconditioner, the fused
// r·z / r·r and the direction update. Ranks run one after the other on this
// goroutine, all ranks finishing iteration j before j+1 like the real solve,
// so the busy times are sums over ranks. The step lengths are fixed small
// numbers, which keeps every vector bounded without a converging solve.
func reenactArithmetic(ranks []rankLayers, steps int) (mul, fused, apply time.Duration) {
	const alpha, beta = 1e-3, 0.5
	for j := 0; j < steps; j++ {
		for i := range ranks {
			rk := &ranks[i]
			t0 := time.Now()
			copy(rk.pg[:rk.m], rk.p)
			t1 := time.Now()
			rk.kern.Mul(rk.q, rk.pg)
			t2 := time.Now()
			pq := vec.Dot(rk.p, rk.q)
			vec.AxpyPair(alpha, rk.p, rk.x, -alpha, rk.q, rk.r)
			t3 := time.Now()
			rk.pc.Apply(rk.z, rk.r)
			t4 := time.Now()
			rz, rr := vec.Dot2(rk.r, rk.z)
			vec.XpayInto(rk.p, rk.z, beta, rk.p)
			t5 := time.Now()
			arithSink += pq + rz + rr
			mul += t2.Sub(t1)
			fused += t1.Sub(t0) + t3.Sub(t2) + t5.Sub(t4)
			apply += t4.Sub(t3)
		}
	}
	return mul, fused, apply
}

// augmentedAt mirrors the storage cadence of the redundant strategies: ESR
// augments every exchange, ESRP the two iterations of each storage stage.
func augmentedAt(c solveCase, j int) bool {
	switch c.strategy {
	case core.StrategyESR:
		return true
	case core.StrategyESRP:
		return j > 2 && (j%c.t == 0 || (j-1)%c.t == 0)
	}
	return false
}

// bareRun times body on a fresh simulated cluster of n ranks with no solver
// on top.
func bareRun(n int, body func(nd *cluster.Node)) (time.Duration, error) {
	comm := cluster.New(n, cluster.DefaultCostModel())
	t0 := time.Now()
	err := comm.Run(body)
	return time.Since(t0), err
}

func (in *solveInstance) layers(tr *tracer, clean *passOut, m layerMetrics) error {
	procs := runtime.GOMAXPROCS(0)
	var attributed time.Duration // wall the layers below account for
	var solveWall time.Duration
	var mulBusy, fusedBusy time.Duration
	var flops, fusedBytes float64
	var extra, regular int

	for i, cfg := range in.cfgs {
		c := in.spec.cases[i]
		steps := clean.cells[i].TotalSteps
		wall := clean.cellWall[i]
		solveWall += wall
		id := tr.begin("reenact " + c.name)

		part, plan, ranks, err := in.buildLayers(cfg, m)
		if err != nil {
			return err
		}
		e, r := plan.ExtraTraffic()
		extra, regular = extra+e, regular+r

		// Local arithmetic. Summed over ranks it is busy time; min(procs,
		// ranks) of them run at once, so that share of it is wall.
		mul, fused, apply := reenactArithmetic(ranks, steps)
		par := time.Duration(min(procs, len(ranks)))
		m.addDur("sparse.mul_s", mul)
		m.addDur("vec.fused_s", fused)
		m.addDur("precond.apply_s", apply)
		mulBusy, fusedBusy = mulBusy+mul, fusedBusy+fused
		tr.record("sparse.Kernel.Mul", mul/par)
		tr.record("vec.fused", fused/par)
		tr.record("precond.Apply", apply/par)
		cellAttr := (mul + fused + apply) / par
		bytesPerIter := 0.0
		for _, rk := range ranks {
			flops += 2 * float64(rk.nnz) * float64(steps)
			fusedBytes += 15 * 8 * float64(rk.m) * float64(steps)
			// CSR-equivalent traffic: value + index per entry, the row
			// pointers, the owned+ghost input and the output.
			bytesPerIter += 16*float64(rk.nnz) + 8*float64(rk.m+1) + 8*float64(rk.m+rk.g) + 8*float64(rk.m)
		}
		m["sparse.bytes_per_iter_computed"] = bytesPerIter

		// Collectives and halo exchange on a bare cluster, no arithmetic in
		// between: what is left is rank hand-off and message passing.
		empty, err := bareRun(cfg.Nodes, func(*cluster.Node) {})
		if err != nil {
			return err
		}
		allreduce, err := bareRun(cfg.Nodes, func(nd *cluster.Node) {
			var buf [2]float64
			for j := 0; j < steps; j++ {
				nd.AllreduceScalar(cluster.OpSum, 1)
				nd.Allreduce(cluster.OpSum, buf[:])
			}
		})
		if err != nil {
			return err
		}
		exchange, err := bareRun(cfg.Nodes, func(nd *cluster.Node) {
			s := nd.Rank()
			ex := plan.NewExchanger(s)
			own := part.Size(s)
			xg := make([]float64, own+plan.GhostLen(s))
			for j := 0; j < steps; j++ {
				if augmentedAt(c, j) {
					ex.StartAugmented(nd, xg[:own])
					rc := ex.FinishAugmented(nd, xg[own:], j)
					ex.Recycle(rc.Val)
				} else {
					ex.Start(nd, xg[:own])
					ex.Finish(nd, xg[own:])
				}
			}
		})
		if err != nil {
			return err
		}
		allreduce, exchange = max(allreduce-empty, 0), max(exchange-empty, 0)
		m.addDur("cluster.run_empty_s", empty)
		m.addDur("cluster.allreduce_s", allreduce)
		m.addDur("aspmv.exchange_s", exchange)
		tr.record("cluster.Run(empty)", empty)
		tr.record("cluster.Allreduce", allreduce)
		tr.record("aspmv.Exchanger", exchange)
		cellAttr += empty + allreduce + exchange

		// Recovery: the same solve with the same number of loop iterations
		// but no failures; what the failures add is recovery.
		if len(cfg.Failures) > 0 {
			twin := cfg
			twin.Failures, twin.Spares, twin.MaxIter = nil, 0, steps
			twin.Workspace = in.ws
			var walls []time.Duration
			for k := 0; k < 3; k++ {
				t0 := time.Now()
				if _, err := core.Solve(twin); err != nil {
					return fmt.Errorf("failure-free twin of %s: %w", c.name, err)
				}
				walls = append(walls, time.Since(t0))
			}
			recovery := max(wall-medianDur(walls), 0)
			m.addDur("core.recovery_s", recovery)
			tr.record("core.recovery", recovery)
			cellAttr += recovery
		}
		tr.record("core.unattributed", max(wall-cellAttr, 0))
		tr.end(id)
		attributed += cellAttr
	}

	rounds := 2 * m["core.steps"]
	m["cluster.allreduce_ns_per_round"] = ratio(m["cluster.allreduce_s"]*1e9, rounds)
	m["sparse.mul_gflops_computed"] = ratio(flops/1e9, mulBusy.Seconds())
	m["vec.gbytes_per_s_computed"] = ratio(fusedBytes/1e9, fusedBusy.Seconds())
	m["aspmv.extra_traffic_ratio"] = ratio(float64(extra), float64(regular))
	m["core.solve_s"] = solveWall.Seconds()
	m["core.recovery_share"] = ratio(m["core.recovery_s"], solveWall.Seconds())
	m["core.unattributed_share"] = ratio((solveWall - attributed).Seconds(), solveWall.Seconds())
	return nil
}
