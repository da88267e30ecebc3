package campaign

import (
	"sync"

	"esrp/internal/ccache"
	"esrp/internal/cluster"
	"esrp/internal/core"
	"esrp/internal/obs"
	"esrp/internal/precond"
	"esrp/internal/replay"
)

// cellCacheState classifies how the cache probe satisfied one cell.
type cellCacheState uint8

const (
	// cellMiss: no usable entry — the cell solves (and stores both tiers).
	cellMiss cellCacheState = iota
	// cellResultHit: the stored model matches the run's — the cell is
	// filled straight from the result tier, zero solves.
	cellResultHit
	// cellScheduleHit: the stored model differs — machine-independent
	// fields come from the result tier and the simulated times from an
	// O(events) re-cost of the stored schedule.
	cellScheduleHit
)

// cacheRun is the per-run cache context: keys, probe classifications and
// eagerly loaded entries for every cell. Probing happens before the
// prepare phase so fully-warm prep groups skip factorization entirely —
// that skip, not the solve skip, is most of the warm-path win on wide
// grids. The probe validates every entry's frame (length + checksum) and
// decodes the small result entries, but hands schedules over still encoded:
// the decode runs on the worker that re-costs the schedule, which is also
// the one that then owns it. A corrupt entry is classified as a miss and
// recomputed, never trusted — at probe time, or for a framed-but-undecodable
// schedule when fillFromCache demotes the cell.
type cacheRun struct {
	model   cluster.CostModel // the run's effective recording model
	keys    []ccache.Key
	state   []cellCacheState
	entries []*ccache.ResultEntry
	scheds  [][]byte // frame-validated schedule payloads, decoded by the consuming worker
}

// cellInputOf assembles the content address of one cell. The values
// mirror exactly what runCell puts into core.Config — in particular
// Spares is zeroed for strategies that never draw from the pool — and name
// the preconditioner core defaults every cell to: block Jacobi with blocks
// of at most 10 rows.
func (g *Grid) cellInputOf(c *Cell, mdigest [32]byte) ccache.CellInput {
	spares := 0
	if c.strat == core.StrategyESR || c.strat == core.StrategyESRP {
		spares = g.Spares
	}
	return ccache.CellInput{
		Matrix:   mdigest,
		Nodes:    c.Nodes,
		Strategy: c.strat,
		T:        c.T,
		Phi:      c.Phi,
		Seed:     c.Seed,
		Events:   c.Events,
		Spares:   spares,
		Rtol:     g.Rtol,
		MaxIter:  g.MaxIter,
		MaxBlock: 10,
		Precond:  precond.BlockJacobi,
	}
}

// probeCache computes every cell's content address and classifies it
// against the cache (nil when the grid has no cache). It runs on the
// worker pool: one atomic cursor hands out the per-matrix digests first and
// then the grid indices, and a cell's task writes nothing but its own slots
// of keys/state/entries/scheds — so what the probe finds, and every byte
// and counter derived from it, is independent of Workers. Cells whose
// scenario failed to compile stay misses; they carry their error already
// and never run.
func (g *Grid) probeCache(cells []Cell, matrices map[string]MatrixSpec) *cacheRun {
	if g.Cache == nil {
		return nil
	}
	cr := &cacheRun{
		model:   g.model(),
		keys:    make([]ccache.Key, len(cells)),
		state:   make([]cellCacheState, len(cells)),
		entries: make([]*ccache.ResultEntry, len(cells)),
		scheds:  make([][]byte, len(cells)),
	}
	// A digest is computed by whichever task asks first — normally its own
	// leading task, so distinct matrices hash side by side — and cell tasks
	// that get there early wait for it. The cache handle hashes a system it
	// has seen before only if its bytes changed, and then remembers just
	// this run's systems.
	digests := make(map[string]func() [32]byte, len(matrices))
	for name, m := range matrices {
		digests[name] = sync.OnceValue(func() [32]byte { return g.Cache.Digest(m.A, m.B) })
	}
	nm := len(g.Matrices)
	eachIndex(g.Workers, nm+len(cells), func(_, t int) {
		if t < nm {
			digests[g.Matrices[t].Name]()
		} else {
			c := &cells[t-nm]
			g.probeCell(t-nm, c, digests[c.Matrix](), cr)
		}
	})
	used := make([][32]byte, 0, nm)
	for _, d := range digests {
		used = append(used, d())
	}
	g.Cache.KeepDigests(used)
	return cr
}

// probeCell classifies cell i against the cache, writing only slot i of cr.
func (g *Grid) probeCell(i int, c *Cell, mdigest [32]byte, cr *cacheRun) {
	cr.keys[i] = g.cellInputOf(c, mdigest).Key()
	entry, ok := g.Cache.GetResult(cr.keys[i])
	if !ok {
		return
	}
	// An exact-model entry answers the cell from the result tier alone; a
	// machine sweep, a model change or a sampled trace additionally needs
	// the recorded schedule. If the schedule tier can't deliver one, the
	// whole cell re-solves so both tiers get rewritten consistently.
	if len(g.Machines) > 0 || entry.Model != cr.model || g.traced(i) {
		sched, ok := g.Cache.GetSchedulePayload(cr.keys[i])
		if !ok {
			return
		}
		cr.scheds[i] = sched
	}
	cr.entries[i] = entry
	if entry.Model == cr.model {
		cr.state[i] = cellResultHit
	} else {
		cr.state[i] = cellScheduleHit
	}
}

// fillFromCache completes one probe-classified hit: report fields from
// the result tier, simulated times re-costed for a schedule hit, machine
// sweep points replayed and a sampled cell's trace walked from the cached
// schedule. Returns false (and demotes the cell to a miss) only if the
// schedule fails to decode or to re-cost, in which case the caller falls
// through to a live solve that rewrites both tiers.
func (g *Grid) fillFromCache(index int, c *Cell, mcs []MachineCell, cr *cacheRun) bool {
	entry := cr.entries[index]
	var sched *replay.Schedule
	var rep *replay.Replayed
	var tr *obs.Trace
	if payload := cr.scheds[index]; payload != nil {
		cr.scheds[index] = nil // probe loaded eagerly; release once consumed
		var ok bool
		var err error
		if sched, ok = g.Cache.DecodeSchedule(payload); ok {
			err = g.recostMachines(sched, mcs)
			switch {
			case err != nil:
			case g.traced(index): // the trace's walk is the re-cost too
				rep, tr, err = sched.Trace(cr.model, obs.Options{Trace: true}, nil)
			case cr.state[index] == cellScheduleHit:
				rep, err = sched.Recost(cr.model)
			}
		}
		if !ok || err != nil {
			cr.state[index] = cellMiss
			return false
		}
	}

	c.CellResult = entry.Result
	if cr.state[index] == cellScheduleHit {
		// Recost is bit-for-bit equal to a live solve under the same
		// model (the replay-equivalence invariant), so the warm report
		// matches a cold run at this machine point exactly.
		c.SimTime = rep.SimTime
		c.RecoveryTime = rep.RecoveryTime
		// Upgrade the entry to the current model: the next run at this
		// machine point becomes a pure result hit.
		up := *entry
		up.Model = cr.model
		up.Result.SimTime = rep.SimTime
		up.Result.RecoveryTime = rep.RecoveryTime
		g.Cache.PutResult(cr.keys[index], &up)
		g.HostObs.CacheScheduleHit()
	} else {
		g.HostObs.CacheResultHit()
	}
	if sched != nil && g.OnCellSchedule != nil {
		g.OnCellSchedule(index, c, sched)
	}
	if tr != nil {
		g.OnCellTrace(index, c, tr)
	}
	return true
}

// recostMachines fills a cell's machine-sweep window (one entry per
// Grid.Machines point) from a single batched walk of its schedule.
func (g *Grid) recostMachines(sched *replay.Schedule, mcs []MachineCell) error {
	if len(mcs) == 0 {
		return nil
	}
	models := make([]cluster.CostModel, len(g.Machines))
	for mi := range models {
		models[mi] = g.Machines[mi].Model
	}
	reps, err := sched.RecostAll(models)
	if err != nil {
		return err
	}
	for mi, rep := range reps {
		mcs[mi].SimTime = rep.SimTime
		mcs[mi].RecoveryTime = rep.RecoveryTime
		mcs[mi].BytesSent = rep.BytesSent
		mcs[mi].MsgsSent = rep.MsgsSent
	}
	return nil
}

// storeCell writes a freshly solved cell into both tiers (schedule first,
// so a crash between the two writes leaves a state the next probe treats
// as a plain miss). Store failures are deliberately non-fatal: the cache
// is an accelerator, and a cell that fails to persist simply recomputes
// next run.
func (g *Grid) storeCell(index int, c *Cell, sched *replay.Schedule, cr *cacheRun) {
	if c.Err != "" {
		return
	}
	if sched != nil {
		g.Cache.PutSchedule(cr.keys[index], sched) //nolint:errcheck // best-effort persist
	}
	g.Cache.PutResult(cr.keys[index], &ccache.ResultEntry{Model: cr.model, Result: c.CellResult}) //nolint:errcheck // best-effort persist
}

// cellResult condenses a solve's result into the record a cell reports and
// the result tier stores.
func cellResult(res *core.Result) ccache.CellResult {
	return ccache.CellResult{
		Converged:    res.Converged,
		Iterations:   res.Iterations,
		TotalSteps:   res.TotalSteps,
		RelResidual:  res.RelResidual,
		SimTime:      res.SimTime,
		RecoveryTime: res.RecoveryTime,
		WastedIters:  res.WastedIters,
		Drift:        res.Drift,
		MaxNodeBytes: res.MaxNodeBytes,
		HaloBytes:    res.HaloBytes,
		BytesSent:    res.BytesSent,
		ActiveNodes:  res.ActiveNodes,
		Kernels:      core.CondenseKernels(res.Kernels),
		Recoveries:   res.Events,
	}
}
