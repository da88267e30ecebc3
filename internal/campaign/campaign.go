// Package campaign runs whole experiment grids — the cross-product of
// strategy × checkpoint interval T × redundancy φ × matrix × node count ×
// scenario seed — concurrently across host cores, one simulated cluster per
// cell. A grid's failure process comes from internal/faultsim: a fixed
// schedule or stochastic multi-failure scenarios. Per-cell results are
// aggregated into median/percentile statistics over seeds and exported as
// structured JSON/CSV for downstream analysis.
//
// The paper's constellation (Section 5; Tables 2–4, Figures 2–3) is such a
// sweep too: RunPaper runs one failure-free grid and then one grid per
// (T, failure location) with a single fixed failure event, and the Render*
// functions lay the cells out as the paper's tables and figures.
//
// Every cell is deterministic (the simulated cluster is, and the scenario is
// seeded), so a campaign's output is bitwise reproducible regardless of how
// the cells are scheduled onto workers.
package campaign

import (
	"cmp"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"esrp/internal/ccache"
	"esrp/internal/cluster"
	"esrp/internal/core"
	"esrp/internal/faultsim"
	"esrp/internal/hostobs"
	"esrp/internal/matgen"
	"esrp/internal/obs"
	"esrp/internal/replay"
	"esrp/internal/sparse"
)

// MatrixSpec names one SPD system of the grid.
type MatrixSpec struct {
	Name string
	A    *sparse.CSR
	B    []float64 // nil = b for x* = ones
}

// Generate builds the CLIs' -gen system gen at grid scale n: poisson2d on
// n×n, poisson3d, emilia and audikw on n³ vertices (audikw with 3 dofs
// each), banded with n² rows. Its name is the one reports, schedule files
// and trace files carry.
func Generate(gen string, n int, seed int64) (MatrixSpec, error) {
	switch gen {
	case "poisson2d":
		return MatrixSpec{Name: fmt.Sprintf("poisson2d-%dx%d", n, n), A: matgen.Poisson2D(n, n)}, nil
	case "poisson3d":
		return MatrixSpec{Name: fmt.Sprintf("poisson3d-%d", n), A: matgen.Poisson3D(n, n, n)}, nil
	case "emilia":
		return MatrixSpec{Name: fmt.Sprintf("emilia-like-%d", n), A: matgen.EmiliaLike(n, n, n, seed)}, nil
	case "audikw":
		return MatrixSpec{Name: fmt.Sprintf("audikw-like-%dx3", n), A: matgen.AudikwLike(n, n, n, 3, seed)}, nil
	case "banded":
		return MatrixSpec{Name: fmt.Sprintf("banded-%d", n*n), A: matgen.BandedSPD(n*n, 8, seed)}, nil
	}
	return MatrixSpec{}, fmt.Errorf("unknown generator %q", gen)
}

// ParseList reads a CLI list flag: comma-separated entries, blanks skipped,
// each read by parse (strconv.Atoi for an integer list). An empty list is an
// error; range rules are the caller's.
func ParseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f == "" {
			continue
		}
		v, err := parse(f)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

// MachinePoint is one machine model of a machine-parameter sweep
// (Grid.Machines): a named cluster.CostModel the recorded schedules are
// re-costed under.
type MachinePoint struct {
	Name  string            `json:"name"`
	Model cluster.CostModel `json:"model"`
}

// Grid describes one campaign: the sweep axes, the failure process, and the
// solver settings shared by every cell.
type Grid struct {
	Matrices   []MatrixSpec
	Nodes      []int           // simulated cluster sizes
	Strategies []core.Strategy // swept strategies
	Ts         []int           // checkpoint intervals (ESRP uses T > 2, IMCR T > 1)
	Phis       []int           // redundancy counts
	Seeds      []int64         // scenario seeds; one cell per seed

	// Scenario is the failure-process template; its Nodes and Seed fields
	// are overridden per cell. The zero value (ModelFixed with no schedule)
	// means failure-free cells.
	Scenario faultsim.Scenario

	// Spares is the replacement-node pool for ESR/ESRP cells (0 =
	// unlimited, the paper's framework); once exhausted, recovery falls
	// back to the no-spare shrink. Other strategies always replace.
	Spares int

	Rtol      float64 // outer tolerance (0 = 1e-8; negative or not finite is an error)
	MaxIter   int     // iteration cap (0 = solver default; negative is an error)
	CostModel *cluster.CostModel

	// Workers bounds the number of cells solved concurrently on the host
	// (0 = GOMAXPROCS; negative is an error). Each cell spawns its own
	// simulated cluster.
	Workers int

	// TraceSample enables span tracing on every N-th cell of the enumerated
	// grid (1 = every cell, 0 = off). Sampling keys on the cell's position
	// in the deterministic grid order, so the traced subset — and each
	// trace's content — is independent of Workers.
	TraceSample int

	// OnCellTrace receives the trace of every sampled cell. It is called
	// from worker goroutines and must be safe for concurrent use. Traces are
	// delivered only through this callback; the report itself is unchanged
	// by sampling.
	OnCellTrace func(index int, c *Cell, tr *obs.Trace)

	// Progress, when set, is called after each finished cell with the count
	// of completed cells and the grid size — the hook for live progress
	// meters. Called from worker goroutines.
	Progress func(done, total int)

	// Machines, when non-empty, adds a machine-parameter sweep axis on the
	// replay engine: each cell's solve runs exactly once with schedule
	// recording on (under CostModel — the recording model), and the schedule
	// is re-costed under every machine point in O(events), filling
	// Report.MachineCells at fixed (cell, machine) indices. The replays run
	// on the worker that solves their cell, so the report bytes stay
	// independent of Workers.
	Machines []MachinePoint

	// OnCellSchedule, when set together with Machines, receives the
	// schedule of every cell that solved or was served from the cache (for
	// artifact export); without Machines it is never called. Called from
	// worker goroutines; must be safe for concurrent use.
	OnCellSchedule func(index int, c *Cell, s *replay.Schedule)

	// Cache, when set, consults the persistent content-addressed store
	// (internal/ccache) before solving: each cell's complete input is
	// digested (machine model excluded — see ccache.CellInput), an
	// exact-model entry fills the cell from the result tier with zero
	// solves, a model mismatch re-costs the cached event schedule in
	// O(events), and misses solve once and persist both tiers. Hits land
	// at their grid indices, so report JSON/CSV stay byte-identical to a
	// cold run at any worker count. Prep groups whose every cell hits
	// skip factorization entirely. Nil (the default) is the cold path,
	// bit-identical to pre-cache behaviour.
	Cache *ccache.Cache

	// HostObs, when set, records host-side execution telemetry for the run:
	// per-worker wall-clock cell timelines, prepKey-affinity hit rate,
	// barrier wait histograms shared by every cell's simulated cluster, and
	// Go-runtime samples at phase boundaries. Nil (the default) records
	// nothing — the worker loop then never reads the wall clock, and report
	// bytes, cell trajectories and allocation behaviour are identical to a
	// recorder-less run.
	HostObs *hostobs.CampaignRecorder

	models []cluster.CostModel // Machines' models in order, built once per Run
}

// Cell is one grid point: its coordinates, the compiled scenario, and the
// condensed solve result.
type Cell struct {
	Matrix   string `json:"matrix"`
	Nodes    int    `json:"nodes"`
	Strategy string `json:"strategy"`
	T        int    `json:"t"`
	Phi      int    `json:"phi"`
	Seed     int64  `json:"seed"`

	Events  []core.FailureSpec `json:"events,omitempty"`  // compiled timeline (after φ-clamping)
	Clamped int                `json:"clamped,omitempty"` // events narrowed to fit φ

	// The condensed solve result, the record the cache's result tier
	// stores; its fields encode inline.
	ccache.CellResult

	Err string `json:"error,omitempty"` // non-empty: the cell failed to run

	strat core.Strategy // the enumerated strategy Strategy names
}

// Aggregate condenses one (matrix, nodes, strategy, T, φ) group over its
// seeds: robust statistics of the per-seed results.
type Aggregate struct {
	Matrix   string `json:"matrix"`
	Nodes    int    `json:"nodes"`
	Strategy string `json:"strategy"`
	T        int    `json:"t"`
	Phi      int    `json:"phi"`

	Seeds         int     `json:"seeds"`
	ConvergedRate float64 `json:"converged_rate"`
	Errors        int     `json:"errors"`

	MedianTime float64 `json:"median_time_s"`
	P10Time    float64 `json:"p10_time_s"`
	P90Time    float64 `json:"p90_time_s"`

	MedianIters    float64 `json:"median_iters"`
	MedianRecovery float64 `json:"median_recovery_s"`
	MedianWasted   float64 `json:"median_wasted_iters"`
	MeanEvents     float64 `json:"mean_events"`
	MaxNodeBytes   int64   `json:"max_node_bytes"`
	ShrunkCells    int     `json:"shrunk_cells"` // cells that finished on fewer nodes
}

// MachineCell is one (cell, machine) point of a machine sweep: the recorded
// cell's schedule re-costed under that machine model.
type MachineCell struct {
	Cell         int     `json:"cell"`    // index into Report.Cells
	Machine      int     `json:"machine"` // index into Report.Machines
	SimTime      float64 `json:"sim_time_s"`
	RecoveryTime float64 `json:"recovery_time_s"`
	BytesSent    int64   `json:"bytes_sent"`
	MsgsSent     int64   `json:"msgs_sent"`
	Err          string  `json:"error,omitempty"`
}

// Report is a campaign's full output.
type Report struct {
	Scenario   string      `json:"scenario"` // the failure process (per-cell seeds listed in Seeds)
	Seeds      []int64     `json:"seeds"`    // scenario seeds the grid swept
	Spares     int         `json:"spares"`
	Cells      []Cell      `json:"cells"`
	Aggregates []Aggregate `json:"aggregates"`

	// Machine sweep output (Grid.Machines): MachineCells[i*len(Machines)+m]
	// is cell i replayed under machine m.
	Machines     []MachinePoint `json:"machines,omitempty"`
	MachineCells []MachineCell  `json:"machine_cells,omitempty"`
}

func (g Grid) withDefaults() (Grid, error) {
	if len(g.Matrices) == 0 {
		return g, fmt.Errorf("campaign: no matrices")
	}
	// Default into a copy: Run takes the grid by value, so filling names
	// must not leak into the caller's slice. A nil B stays nil: Run derives
	// b = A·1 only if a cell of the system solves (system.rhs).
	g.Matrices = append([]MatrixSpec(nil), g.Matrices...)
	// Cells, prepared contexts and cache digests find their system by name.
	index := make(map[string]int, len(g.Matrices))
	for i := range g.Matrices {
		m := &g.Matrices[i]
		if m.A == nil {
			return g, fmt.Errorf("campaign: matrix %d (%q) is nil", i, m.Name)
		}
		if m.Name == "" {
			m.Name = fmt.Sprintf("matrix%d", i)
		}
		if j, dup := index[m.Name]; dup {
			return g, fmt.Errorf("campaign: matrices %d and %d are both named %q", j, i, m.Name)
		}
		index[m.Name] = i
	}
	if len(g.Nodes) == 0 {
		g.Nodes = []int{8}
	}
	if len(g.Strategies) == 0 {
		g.Strategies = []core.Strategy{core.StrategyESRP, core.StrategyIMCR}
	}
	if len(g.Ts) == 0 {
		g.Ts = []int{20}
	}
	if len(g.Phis) == 0 {
		g.Phis = []int{1}
	}
	if len(g.Seeds) == 0 {
		g.Seeds = []int64{1}
	}
	// Mistakes that would turn every cell of a row into an error cell stop
	// the run before any cell does.
	for _, n := range g.Nodes {
		if n < 1 {
			return g, fmt.Errorf("campaign: node counts must be ≥ 1, got %d", n)
		}
		if !g.failureFree() {
			sc := g.Scenario
			sc.Nodes = n
			if err := sc.Validate(); err != nil {
				return g, fmt.Errorf("campaign: scenario at %d nodes: %w", n, err)
			}
		}
	}
	for _, phi := range g.Phis {
		if phi < 0 {
			return g, fmt.Errorf("campaign: redundancy φ must be ≥ 0 (0 = 1 for redundant strategies), got %d", phi)
		}
	}
	// A seed-independent scenario (fixed schedule, or the zero value =
	// failure-free) makes every seed's cell bit-identical; collapse the
	// seed axis instead of running redundant copies.
	if g.Scenario.Model == faultsim.ModelFixed && len(g.Seeds) > 1 {
		g.Seeds = g.Seeds[:1]
	}
	if math.IsNaN(g.Rtol) || math.IsInf(g.Rtol, 0) {
		return g, fmt.Errorf("campaign: tolerance must be finite, got %g", g.Rtol)
	}
	if g.Rtol < 0 {
		return g, fmt.Errorf("campaign: tolerance must be ≥ 0 (0 = 1e-8), got %g", g.Rtol)
	}
	if g.Rtol == 0 {
		g.Rtol = 1e-8
	}
	if g.MaxIter < 0 {
		return g, fmt.Errorf("campaign: iteration cap must be ≥ 0 (0 = solver default), got %d", g.MaxIter)
	}
	if g.Spares < 0 {
		return g, fmt.Errorf("campaign: spares must be ≥ 0, got %d", g.Spares)
	}
	if g.Workers < 0 {
		return g, fmt.Errorf("campaign: workers must be ≥ 0 (0 = GOMAXPROCS), got %d", g.Workers)
	}
	if g.Workers == 0 {
		g.Workers = runtime.GOMAXPROCS(0)
	}
	if len(g.Machines) > 0 {
		g.Machines = append([]MachinePoint(nil), g.Machines...)
		g.models = make([]cluster.CostModel, len(g.Machines))
		for i := range g.Machines {
			if g.Machines[i].Name == "" {
				g.Machines[i].Name = fmt.Sprintf("machine%d", i)
			}
			g.models[i] = g.Machines[i].Model
		}
	}
	return g, nil
}

// tsFor maps the grid's interval list to the strategy's admissible cells,
// following the paper's conventions: ESR is the T = 1 point, ESRP needs
// T > 2, IMCR T > 1, and None has no interval axis.
func (g Grid) tsFor(s core.Strategy) []int {
	switch s {
	case core.StrategyNone:
		return []int{0}
	case core.StrategyESR:
		return []int{1}
	case core.StrategyESRP:
		var out []int
		for _, t := range g.Ts {
			if t > 2 {
				out = append(out, t)
			}
		}
		return out
	case core.StrategyIMCR:
		var out []int
		for _, t := range g.Ts {
			if t > 1 {
				out = append(out, t)
			}
		}
		return out
	}
	return nil
}

func (g Grid) phisFor(s core.Strategy) []int {
	if s == core.StrategyNone {
		return []int{0}
	}
	return g.Phis
}

// Run executes the campaign: it enumerates the grid, solves every cell
// concurrently across Workers host goroutines, and aggregates the per-seed
// statistics. Cell errors are recorded, not fatal; Run fails only on an
// invalid grid.
func Run(g Grid) (*Report, error) {
	g, err := g.withDefaults()
	if err != nil {
		return nil, err
	}

	// Enumerate the cross-product in deterministic order, each strategy's
	// admissible intervals and φ values computed once. A requested
	// strategy with no admissible interval is a configuration error, not a
	// silent omission from the export. Each cell takes its φ-clamped view of
	// its (nodes, seed) failure draw as it is enumerated.
	ts, phis := make([][]int, len(g.Strategies)), make([][]int, len(g.Strategies))
	perSystem := 0 // cells per (matrix, nodes) pair
	for i, strat := range g.Strategies {
		ts[i], phis[i] = g.tsFor(strat), g.phisFor(strat)
		if len(ts[i]) == 0 {
			return nil, fmt.Errorf("campaign: strategy %v has no admissible checkpoint interval in %v (ESRP needs T > 2, IMCR T > 1)", strat, g.Ts)
		}
		perSystem += len(ts[i]) * len(phis[i]) * len(g.Seeds)
	}
	draws, err := g.compileDraws()
	if err != nil {
		return nil, err
	}
	cells := make([]Cell, 0, len(g.Matrices)*len(g.Nodes)*perSystem)
	for _, m := range g.Matrices {
		for ni, n := range g.Nodes {
			for i, strat := range g.Strategies {
				for _, t := range ts[i] {
					for _, phi := range phis[i] {
						for si, seed := range g.Seeds {
							c := Cell{
								Matrix: m.Name, Nodes: n,
								Strategy: strat.String(), T: t, Phi: phi, Seed: seed,
								strat: strat,
							}
							draws[ni*len(g.Seeds)+si].fill(&c)
							cells = append(cells, c)
						}
					}
				}
			}
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("campaign: empty grid (no admissible strategy×T cells)")
	}

	systems := make([]system, len(g.Matrices))
	matrices := make(map[string]*system, len(g.Matrices))
	for i, m := range g.Matrices {
		systems[i].MatrixSpec = m
		matrices[m.Name] = &systems[i]
	}

	// Host telemetry (inert when HostObs is nil): one barrier-stats sink
	// sized for the largest cluster of the grid serves every cell, and the
	// runtime sampler brackets the prepare and solve phases.
	g.HostObs.Begin(g.Workers, len(cells), slices.Max(g.Nodes))
	g.HostObs.SamplePhase("start")

	// Probe the persistent cache first (nil cacheRun when Grid.Cache is
	// nil): every cell's content address resolves and hits load their
	// result entries — so the prepare phase below can skip factorizing
	// contexts no miss needs, which on a fully-warm sweep eliminates setup
	// along with the solves.
	cr := g.probeCache(cells, systems, matrices)
	if cr != nil {
		g.HostObs.SamplePhase("cache-probed")
	}

	// Build each distinct solve context (partition, plan, local matrices,
	// preconditioners) exactly once, before the pool starts: many cells
	// differ only in T, seed or strategy-within-augmentation and share the
	// same read-only context, so the per-cell setup collapses to a map
	// lookup. A context that fails to prepare stays nil and the cell falls
	// back to the old per-cell path (surfacing the same error).
	preps := g.prepareContexts(cells, matrices, func(i int) bool {
		return cr == nil || cr.state[i] == cellMiss
	})
	g.HostObs.SamplePhase("prepared")

	// Executor half: Workers goroutines claim cells in grid order off one
	// atomic cursor — the pool the probe and prepare phases use. Grid order
	// keeps cells that share a Prepared context in runs, so a worker's next
	// cell often uses the context its last one did. Results land at their
	// cell index, so the report order is independent of which worker ran
	// which cell. Each worker owns one Workspace: consecutive cells on it
	// reuse the solver's vector buffers instead of re-allocating them.
	// Progress is an atomic post-increment per finished cell, so callbacks
	// see each value of 1..total exactly once (delivery order across
	// workers is not a contract). Machine-sweep results live at fixed
	// (cell, machine) indices, so the sweep output is as independent of the
	// workers as the cells themselves.
	var machineCells []MachineCell
	if nm := len(g.Machines); nm > 0 {
		machineCells = make([]MachineCell, len(cells)*nm)
		for i := range cells {
			for mi := 0; mi < nm; mi++ {
				machineCells[i*nm+mi] = MachineCell{Cell: i, Machine: mi}
			}
		}
	}

	workers := make([]execWorker, g.Workers)
	var done atomic.Int64
	total := len(cells)
	eachIndex(g.Workers, total, func(w, i int) {
		x := &workers[w]
		if x.ws == nil {
			x.ws = core.NewWorkspace()
		}
		wl := g.HostObs.Worker(w) // nil handle when telemetry is off
		c := &cells[i]
		key := prepKeyOf(c)
		t0 := wl.Clock()
		var mcs []MachineCell
		if nm := len(g.Machines); nm > 0 {
			mcs = machineCells[i*nm : (i+1)*nm]
		}
		g.runCell(i, c, matrices[c.Matrix], preps[key], x.ws, mcs, cr)
		wl.Cell(t0, i, key == x.lastKey)
		x.lastKey = key
		if g.Progress != nil {
			g.Progress(int(done.Add(1)), total)
		}
	})
	g.HostObs.SamplePhase("done")
	if g.Cache != nil {
		io := g.Cache.Stats()
		g.HostObs.SetCacheIO(io.BytesRead, io.BytesWritten, io.Corrupt)
	}

	return &Report{
		Scenario:     g.Scenario.String(),
		Seeds:        g.Seeds,
		Spares:       g.Spares,
		Cells:        cells,
		Aggregates:   aggregate(cells),
		Machines:     g.Machines,
		MachineCells: machineCells,
	}, nil
}

// system is one matrix of a run. A nil B is the right-hand side for
// x* = ones, b = A·1, which the run derives at most once and only for a
// solve: a warm run, whose cells all hit, does no arithmetic on its systems.
type system struct {
	MatrixSpec
	digest  [32]byte // the cache's digest of the system, set by probeCache
	once    sync.Once
	derived []float64
}

// rhs returns the system's right-hand side, deriving A·1 on first use for a
// nil B.
func (s *system) rhs() []float64 {
	if s.B != nil {
		return s.B
	}
	s.once.Do(s.derive)
	return s.derived
}

func (s *system) derive() { s.derived = ccache.DefaultRHS(s.A) }

// prepKey identifies the solve context a cell needs: everything that shapes
// the partition/plan/local-matrix setup. T, seed and the IMCR-vs-None
// distinction don't: they only affect the dynamic solve.
type prepKey struct {
	Matrix string
	Nodes  int
	Phi    int // plan augmentation level (0 = plain product)
}

func prepKeyOf(c *Cell) prepKey {
	phi := 0
	if c.strat == core.StrategyESR || c.strat == core.StrategyESRP {
		phi = c.Phi
		if phi == 0 {
			phi = 1 // mirror core's withDefaults: redundant strategies default φ to 1
		}
	}
	return prepKey{Matrix: c.Matrix, Nodes: c.Nodes, Phi: phi}
}

// execWorker is one executor worker's state: its solver Workspace and the
// prepKey of the cell it ran last. The zero prepKey names no cell (every
// matrix has a name by then), so a worker's first cell is never an
// affinity hit.
type execWorker struct {
	ws      *core.Workspace
	lastKey prepKey
}

// eachIndex calls do(w, i) once for every i in [0, n) on min(workers, n)
// goroutines, which claim indices in order from one atomic cursor, and
// waits. w names the goroutine that claimed i, so callers keep per-worker
// state in a slice indexed by it.
func eachIndex(workers, n int, do func(w, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				do(w, i)
			}
		}()
	}
	wg.Wait()
}

// prepareContexts builds the distinct Prepared contexts of the grid, keyed
// by prepKey. The distinct keys are enumerated in deterministic cell order,
// then built concurrently across the worker budget — contexts are
// independent, and per-rank preconditioner factorization is the expensive
// part of a wide grid's setup. need(i) filters which cells still require a
// context: a cache-backed run only prepares for its misses, so a fully-warm
// prep group skips factorization along with its solves.
func (g Grid) prepareContexts(cells []Cell, matrices map[string]*system, need func(i int) bool) map[prepKey]*core.Prepared {
	preps := make(map[prepKey]*core.Prepared)
	var first []*Cell // per distinct key, the first cell that needs it
	for i := range cells {
		if !need(i) {
			continue
		}
		key := prepKeyOf(&cells[i])
		if _, ok := preps[key]; !ok {
			preps[key] = nil
			first = append(first, &cells[i])
		}
	}

	built := make([]*core.Prepared, len(first))
	eachIndex(g.Workers, len(first), func(_, k int) {
		c := first[k]
		m := matrices[c.Matrix]
		prep, err := core.Prepare(core.Config{
			A: m.A, B: m.rhs(), Nodes: c.Nodes,
			Strategy: c.strat, T: c.T, Phi: c.Phi,
			Rtol: g.Rtol, MaxIter: g.MaxIter,
		})
		if err == nil {
			built[k] = prep // else nil: cells fall back to per-cell setup and surface the error
		}
	})
	for k, c := range first {
		preps[prepKeyOf(c)] = built[k]
	}
	return preps
}

// draw is the failure timeline of one (nodes, seed) pair — the scenario
// compiled once. Every cell at that pair reads the same draw, whatever its
// matrix, strategy, T and φ.
type draw []core.FailureSpec

// compileDraws compiles the grid's failure scenario once per (nodes, seed);
// the draw of g.Nodes[ni], g.Seeds[si] is at [ni*len(g.Seeds)+si]. Compile
// fails only where Validate does, which withDefaults ran at every node
// count, so an error here fails the whole grid as that check would have.
func (g Grid) compileDraws() ([]draw, error) {
	draws := make([]draw, len(g.Nodes)*len(g.Seeds))
	if g.failureFree() {
		return draws, nil
	}
	for ni, n := range g.Nodes {
		for si, seed := range g.Seeds {
			sc := g.Scenario
			sc.Nodes, sc.Seed = n, seed
			events, err := sc.Compile()
			if err != nil {
				return nil, fmt.Errorf("campaign: scenario at %d nodes: %w", n, err)
			}
			draws[ni*len(g.Seeds)+si] = events
		}
	}
	return draws, nil
}

// failureFree reports whether the grid's scenario is the zero one: a fixed
// model without a schedule, no failures at any node count.
func (g *Grid) failureFree() bool {
	return g.Scenario.Model == faultsim.ModelFixed && len(g.Scenario.Schedule) == 0
}

// fill gives c its view of the draw, setting c.Events and c.Clamped.
// Redundancy covers at most φ simultaneous failures; events wider than the
// cell's φ are clamped to their first φ ranks (still a contiguous block) so
// every cell of the grid is admissible. The clamp count is recorded — a grid
// with many clamps should raise φ or shrink the correlation groups. Cells no
// clamp narrows share the draw's slice, which nothing writes after this; a
// clamped cell narrows a private copy.
func (d draw) fill(c *Cell) {
	c.Events = d
	if c.strat == core.StrategyNone || c.Phi <= 0 {
		return
	}
	for i := range d {
		if len(d[i].Ranks) > c.Phi {
			if c.Clamped == 0 {
				c.Events = slices.Clone(d)
			}
			c.Events[i].Ranks = c.Events[i].Ranks[:c.Phi:c.Phi]
			c.Clamped++
		}
	}
}

// runCell solves the cell and condenses the result in place.
// index is the cell's position in the grid order (the trace sampling key).
// mcs, when non-nil, is this cell's machine-sweep result window (one entry
// per Grid.Machines point): the solve is recorded once and each point's
// figures come from an O(events) replay of the schedule. cr, when non-nil,
// is the cache context: hits fill the cell without solving, misses solve
// with recording on and persist both tiers. A sampled cell's trace is a
// walk of its schedule, the cached one on a hit, so a hit never solves.
func (g Grid) runCell(index int, c *Cell, m *system, prep *core.Prepared, ws *core.Workspace, mcs []MachineCell, cr *cacheRun) {
	if cr != nil && cr.state[index] != cellMiss && g.fillFromCache(index, c, mcs, cr) {
		return
	}
	if cr != nil {
		g.HostObs.CacheMiss()
	}
	traced := g.traced(index)

	cfg := core.Config{
		A: m.A, B: m.rhs(), Nodes: c.Nodes,
		Strategy: c.strat, T: c.T, Phi: c.Phi,
		Rtol: g.Rtol, MaxIter: g.MaxIter,
		CostModel: g.CostModel,
		Failures:  c.Events,
		Prepared:  prep,
		Workspace: ws,
		HostStats: g.HostObs.BarrierStats(), // nil when telemetry is off
	}
	if c.strat == core.StrategyESR || c.strat == core.StrategyESRP {
		cfg.Spares = g.Spares
	}
	// Record whenever a machine sweep needs the schedule, a cache miss will
	// persist it, or a trace is drawn from it: the schedule tier is what
	// lets future runs serve any machine point, and any trace, without a
	// solve.
	if len(mcs) > 0 || cr != nil || traced {
		cfg.Record = replay.NewRecorder()
	}
	res, err := core.Solve(cfg)
	if err != nil {
		c.Err = err.Error()
		for i := range mcs {
			mcs[i].Err = err.Error()
		}
		return
	}
	if sched := res.Schedule; sched != nil {
		if rerr := g.recostMachines(sched, mcs); rerr != nil {
			for mi := range mcs {
				mcs[mi].Err = rerr.Error()
			}
		}
		if len(mcs) > 0 && g.OnCellSchedule != nil {
			g.OnCellSchedule(index, c, sched)
		}
	}
	c.CellResult = cellResult(res)
	if cr != nil {
		g.storeCell(index, c, res.Schedule, cr)
	}
	if traced {
		if _, tr, err := res.Schedule.Trace(g.model(), obs.Options{Trace: true}, nil); err != nil {
			c.Err = err.Error()
		} else {
			g.OnCellTrace(index, c, tr)
		}
	}
}

// model is the machine model the grid's cells solve under.
func (g *Grid) model() cluster.CostModel {
	if g.CostModel != nil {
		return *g.CostModel
	}
	return cluster.DefaultCostModel()
}

// traced reports whether the cell at grid index i is in the trace sample.
func (g *Grid) traced(i int) bool {
	return g.TraceSample > 0 && i%g.TraceSample == 0 && g.OnCellTrace != nil
}

// compareGroup orders cells by the coordinates an Aggregate condenses over
// — everything but the seed — which is the order of Report.Aggregates.
func compareGroup(a, b *Cell) int {
	return cmp.Or(
		strings.Compare(a.Matrix, b.Matrix),
		cmp.Compare(a.Nodes, b.Nodes),
		strings.Compare(a.Strategy, b.Strategy),
		cmp.Compare(a.T, b.T),
		cmp.Compare(a.Phi, b.Phi),
	)
}

// aggregate groups the cells by coordinates and computes the seed
// statistics: the cells are ordered by group, and each run of equals is one.
func aggregate(cells []Cell) []Aggregate {
	order := make([]*Cell, len(cells))
	for i := range cells {
		order[i] = &cells[i]
	}
	slices.SortStableFunc(order, compareGroup)

	var out []Aggregate
	var times, iters, recov, wasted []float64 // per-group series, reused across groups
	for len(order) > 0 {
		n := 1
		for n < len(order) && compareGroup(order[0], order[n]) == 0 {
			n++
		}
		group := order[:n]
		order = order[n:]

		k := group[0]
		a := Aggregate{Matrix: k.Matrix, Nodes: k.Nodes, Strategy: k.Strategy, T: k.T, Phi: k.Phi, Seeds: n}
		times, iters, recov, wasted = times[:0], iters[:0], recov[:0], wasted[:0]
		events := 0
		for _, c := range group {
			if c.Err != "" {
				a.Errors++
				continue
			}
			if c.Converged {
				a.ConvergedRate++
			}
			times = append(times, c.SimTime)
			iters = append(iters, float64(c.Iterations))
			recov = append(recov, c.RecoveryTime)
			wasted = append(wasted, float64(c.WastedIters))
			// Count failures that actually struck (events scheduled past
			// convergence never fire), matching Summary's figure.
			events += len(c.Recoveries)
			a.MaxNodeBytes = max(a.MaxNodeBytes, c.MaxNodeBytes)
			if c.ActiveNodes > 0 && c.ActiveNodes < c.Nodes {
				a.ShrunkCells++
			}
		}
		if ok := n - a.Errors; ok > 0 {
			a.ConvergedRate /= float64(ok)
			a.MeanEvents = float64(events) / float64(ok)
		}
		for _, series := range [][]float64{times, iters, recov, wasted} {
			slices.Sort(series)
		}
		a.MedianTime = percentile(times, 50)
		a.P10Time = percentile(times, 10)
		a.P90Time = percentile(times, 90)
		a.MedianIters = percentile(iters, 50)
		a.MedianRecovery = percentile(recov, 50)
		a.MedianWasted = percentile(wasted, 50)
		out = append(out, a)
	}
	return out
}

// percentile returns the nearest-rank p-th percentile of the ascending
// series s (0 on empty).
func percentile(s []float64, p int) float64 {
	if len(s) == 0 {
		return 0
	}
	i := (p*len(s) + 50) / 100 // nearest rank, 1-based
	return s[min(max(i, 1), len(s))-1]
}

// WriteJSON emits the full report (cells + aggregates) as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteCSV emits one row per cell — the flat form for spreadsheets and
// plotting scripts.
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{
		"matrix", "nodes", "strategy", "t", "phi", "seed",
		"events", "converged", "iterations", "sim_time_s", "recovery_time_s",
		"wasted_iters", "drift", "max_node_bytes", "halo_bytes", "active_nodes", "error",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, c := range r.Cells {
		row := []string{
			c.Matrix, strconv.Itoa(c.Nodes), c.Strategy, strconv.Itoa(c.T),
			strconv.Itoa(c.Phi), strconv.FormatInt(c.Seed, 10),
			strconv.Itoa(len(c.Recoveries)), strconv.FormatBool(c.Converged),
			strconv.Itoa(c.Iterations),
			strconv.FormatFloat(c.SimTime, 'g', -1, 64),
			strconv.FormatFloat(c.RecoveryTime, 'g', -1, 64),
			strconv.Itoa(c.WastedIters),
			strconv.FormatFloat(c.Drift, 'g', -1, 64),
			strconv.FormatInt(c.MaxNodeBytes, 10),
			strconv.FormatInt(c.HaloBytes, 10),
			strconv.Itoa(c.ActiveNodes),
			c.Err,
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
