package campaign

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"esrp/internal/ccache"
	"esrp/internal/cluster"
	"esrp/internal/core"
	"esrp/internal/faultsim"
	"esrp/internal/hostobs"
	"esrp/internal/matgen"
	"esrp/internal/obs"
	"esrp/internal/replay"
)

// A cache pre-state is what the cache holds before a run.
type cachePre int

const (
	preNone    cachePre = iota // no cache
	preEmpty                   // a fresh directory
	preWarm                    // the grid's entries
	preMoved                   // the grid's entries, written under movedModel
	prePartial                 // the ESRP-only grid's entries: an interrupted sweep
	preKeyed                   // the grid's entries at Rtol 1e-6: none is this grid's
	preBypass                  // the grid's entries under a foreign build's manifest, MismatchBypass
	preRefresh                 // the same directory under MismatchRefresh
	preDamaged                 // the grid's entries, each cell's with one fault
	preResults                 // the grid's result entries, the schedule tier deleted
	numPres
)

var preNames = [numPres]string{"none", "empty", "warm", "moved", "partial", "keyed", "bypass", "refresh", "damaged", "results-only"}

// A fault is what the damaged pre-state does to one cell's entries. A cell
// whose key has no entries is a resMissing cell.
type fault int

const (
	noFault         fault = iota
	resMissing            // result entry deleted
	resTruncated          // cut to half its length
	resFlipped            // one payload bit flipped: the checksum fails
	resBadMagic           // the frame's magic overwritten
	schMissing            // schedule entry deleted
	schGarbled            // bytes overwritten mid-payload: the checksum fails
	schUndecodable        // framed, but a view names a rank past the node count
	schUnrecostable       // decodes, but a rank waits for a message no rank sends
	numFaults       = iota - 1
)

// cacheOpts is one run option. Each runs at the worker counts it lists, so
// every pre-state and traces meet both; the machine sweep, whose workers
// read both tiers of every cell, runs at both.
type cacheOpts struct {
	name      string
	machines  bool // Machines {base, fast}
	sample    int  // TraceSample
	schedules bool // OnCellSchedule
	workers   []int
}

var cacheOptions = []cacheOpts{
	{name: "plain", workers: []int{1}},
	{name: "machines", machines: true, workers: []int{1, 4}},
	{name: "sample2", sample: 2, workers: []int{1}},
	{name: "schedules", schedules: true, workers: []int{4}},
	{name: "all", machines: true, sample: 1, schedules: true, workers: []int{4}},
}

func (o cacheOpts) sampled(i int) bool { return o.sample > 0 && i%o.sample == 0 }

// statesGrid is the enumeration's grid: ESR, ESRP and IMCR at T = 3 on
// Poisson2D 8×8 over 4 nodes, two seeds of exponential failures — seed 1
// draws none, seed 2 three, which ESR recovers and ESRP and IMCR meet with
// restarts and rollbacks.
func statesGrid() Grid {
	return Grid{
		Matrices:   []MatrixSpec{{Name: "poisson", A: matgen.Poisson2D(8, 8)}},
		Nodes:      []int{4},
		Strategies: []core.Strategy{core.StrategyESR, core.StrategyESRP, core.StrategyIMCR},
		Ts:         []int{3},
		Phis:       []int{1},
		Seeds:      []int64{1, 2},
		Scenario:   faultsim.Scenario{Model: faultsim.ModelExponential, MTBF: 40, Horizon: 10},
		Workers:    4,
	}
}

// movedModel is a machine other than the default one: L ×4, G ×2.
func movedModel() cluster.CostModel {
	m := cluster.DefaultCostModel()
	m.Latency *= 4
	m.BytePeriod *= 2
	return m
}

// predict is what probeCell and fillFromCache make of cell i, its entries
// written under model with fault f: the cell's class, and how many of its
// entries the run counts corrupt. A cell needs its schedule iff the run
// sweeps machines, the stored model differs or the cell is sampled.
func predict(model cluster.CostModel, f fault, o cacheOpts, i int) (cellCacheState, int64) {
	switch base := cluster.DefaultCostModel(); {
	case f == resMissing:
		return cellMiss, 0
	case f >= resTruncated && f <= resBadMagic:
		return cellMiss, 1 // the frame check rejects the result entry
	case !o.machines && model == base && !o.sampled(i):
		return cellResultHit, 0
	case f == schMissing || f == schUnrecostable:
		return cellMiss, 0
	case f == schGarbled || f == schUndecodable:
		return cellMiss, 1 // the frame check or the decode rejects the schedule
	case model != base:
		return cellScheduleHit, 0
	}
	return cellResultHit, 0
}

// cacheRunOut is what a run hands over: its report and its bytes, each
// delivered trace's Chrome bytes and schedule's encoding by cell, each cell's
// class (one-worker cache-backed runs), progress calls, cache counters and
// the collective phases its solves ran.
type cacheRunOut struct {
	rep            *Report
	json, csv      []byte
	traces, scheds map[int][]byte
	classes        []cellCacheState
	calls          int
	ctr            *hostobs.CacheCounters
	phases         int64
}

// runOpts runs g under options o, with a host recorder when rec is set.
func runOpts(t *testing.T, g Grid, o cacheOpts, rec bool) *cacheRunOut {
	t.Helper()
	out := &cacheRunOut{traces: map[int][]byte{}, scheds: map[int][]byte{}}
	var mu sync.Mutex
	keep := func(m map[int][]byte, i int, b []byte, err error) {
		mu.Lock()
		defer mu.Unlock()
		m[i] = b
		if err != nil {
			t.Error(err)
		}
	}
	if o.machines {
		fast := cluster.DefaultCostModel()
		fast.FlopTime /= 2
		g.Machines = []MachinePoint{{Name: "base", Model: cluster.DefaultCostModel()}, {Name: "fast", Model: fast}}
	}
	if g.TraceSample = o.sample; o.sample > 0 {
		g.OnCellTrace = func(i int, _ *Cell, tr *obs.Trace) {
			var buf bytes.Buffer
			err := tr.WriteChrome(&buf)
			keep(out.traces, i, buf.Bytes(), err)
		}
	}
	if o.schedules {
		g.OnCellSchedule = func(i int, _ *Cell, s *replay.Schedule) {
			b, err := s.EncodeBinary()
			keep(out.scheds, i, b, err)
		}
	}
	if rec {
		g.HostObs = hostobs.NewCampaignRecorder()
	}
	var last [3]int64 // misses, result hits, schedule hits: cellCacheState order
	g.Progress = func(int, int) {
		mu.Lock()
		defer mu.Unlock()
		out.calls++
		if g.Workers == 1 && g.Cache != nil { // cells finish in grid order
			r, s, m := g.HostObs.LiveCacheHits()
			for c, n := range [3]int64{m, r, s} {
				if n != last[c] {
					out.classes = append(out.classes, cellCacheState(c))
				}
				last[c] = n
			}
		}
	}
	out.rep = mustRun(t, g)
	var jb, cb bytes.Buffer
	if err := errors.Join(out.rep.WriteJSON(&jb), out.rep.WriteCSV(&cb)); err != nil {
		t.Fatal(err)
	}
	out.json, out.csv = jb.Bytes(), cb.Bytes()
	tel := g.HostObs.Telemetry()
	out.ctr = tel.Cache
	for _, m := range tel.Barrier.Members {
		out.phases += m.Phases
	}
	return out
}

// cacheEnum holds what draws share: the grid's cells and keys, and each
// option's reference run and the directories setUp shares, made on first use.
type cacheEnum struct {
	t      *testing.T
	cells  []Cell
	keys   []ccache.Key
	refs   map[string]*cacheRunOut
	shared map[cachePre]string
	drawn  int // runs over a pre-state; second runs not counted
}

func newCacheEnum(t *testing.T) *cacheEnum {
	e := &cacheEnum{t: t, refs: map[string]*cacheRunOut{}, shared: map[cachePre]string{}}
	e.cells = e.ref(cacheOptions[0]).rep.Cells
	g, _ := statesGrid().withDefaults() // valid, as its reference ran: the Rtol the keys name
	m := g.Matrices[0]
	d := (*ccache.Cache)(nil).Digest(m.A, m.B) // the probe's digest: a nil B is b = A·1
	for i := range e.cells {
		e.keys = append(e.keys, g.cellInputOf(&e.cells[i], d).Key())
	}
	return e
}

// ref is the reference run of options o: no cache, no recorder, one worker.
// It traces the sampled cells, each trace valid, delivers every cell's
// schedule iff it sweeps machines, and reports what the plain (or the
// machine-sweep) run reports: sampling and the callback change no byte.
func (e *cacheEnum) ref(o cacheOpts) *cacheRunOut {
	if r, ok := e.refs[o.name]; ok {
		return r
	}
	g := statesGrid()
	g.Workers = 1
	r := runOpts(e.t, g, o, false)
	e.refs[o.name] = r
	for i := range r.rep.Cells {
		tr, traced := r.traces[i]
		_, sched := r.scheds[i]
		if traced != o.sampled(i) || sched != (o.schedules && o.machines) || traced && obs.ValidateChromeTrace(tr) != nil {
			e.t.Fatalf("%s reference: cell %d traced %v, delivered a schedule %v, or its trace is invalid", o.name, i, traced, sched)
		}
	}
	bare := cacheOptions[0] // plain
	if o.machines {
		bare = cacheOptions[1]
	}
	if b := e.ref(bare); !bytes.Equal(r.json, b.json) || !bytes.Equal(r.csv, b.csv) {
		e.t.Fatalf("%s reference: sampling or the schedule callback changed the report", o.name)
	}
	return r
}

// stored is the model cell i's entries in pre-state p were written under and
// their fault; damaged draws rotate the faults by rot.
func (e *cacheEnum) stored(p cachePre, i, rot int) (cluster.CostModel, fault) {
	switch {
	case p == preMoved:
		return movedModel(), noFault
	case p == preDamaged:
		return cluster.DefaultCostModel(), fault(1 + (i+rot)%numFaults)
	case p == preResults:
		return cluster.DefaultCostModel(), schMissing
	case p == preWarm || p == prePartial && e.cells[i].strat == core.StrategyESRP:
		return cluster.DefaultCostModel(), noFault
	}
	return cluster.DefaultCostModel(), resMissing
}

// damage applies fault f to cell i's entries in dir.
func (e *cacheEnum) damage(dir string, i int, f fault) error {
	tier, ext := "res", ".res"
	if f >= schMissing {
		tier, ext = "sch", ".sched"
	}
	path := filepath.Join(dir, tier, hex.EncodeToString(e.keys[i][:1]), hex.EncodeToString(e.keys[i][:])+ext)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	switch f {
	case resMissing, schMissing:
		return os.Remove(path)
	case resTruncated:
		data = data[:len(data)/2]
	case resFlipped:
		data[len(data)-2] ^= 0x10
	case resBadMagic:
		copy(data, "BADMAGIC")
	case schGarbled:
		copy(data[len(data)/2:], "GARBAGE!")
	case schUndecodable:
		s, err := ccache.ReadScheduleFile(path)
		if err != nil {
			return err
		}
		s.Views = append(s.Views, []int{s.Nodes})
		return ccache.WriteScheduleFile(path, s)
	case schUnrecostable:
		rec := replay.NewRecorder()
		rec.Init(4)
		rec.Rank(0).Recv(1)
		return ccache.WriteScheduleFile(path, rec.Schedule())
	}
	return os.WriteFile(path, data, 0o644)
}

// setUp builds pre-state p in a fresh directory — what a cold run of the
// grid, changed as p says, leaves there, damaged for preDamaged, without its
// schedule tier for preResults — and opens the cache over it (nil for
// preNone and preBypass). No run writes to a
// bypassed cache, nor to a warm one, all result hits, which check holds to
// writing nothing: those two are built once.
func (e *cacheEnum) setUp(p cachePre, rot int) (*ccache.Cache, string) {
	if p == preNone {
		return nil, ""
	}
	dir, built := e.shared[p]
	var err error
	if !built {
		dir = e.t.TempDir()
		g, build := statesGrid(), obs.BuildInfo{GoVersion: "test"}
		switch moved := movedModel(); p {
		case preMoved:
			g.CostModel = &moved
		case prePartial:
			g.Strategies = []core.Strategy{core.StrategyESRP}
		case preKeyed:
			g.Rtol = 1e-6
		case preBypass, preRefresh:
			build.GoVersion = "foreign"
		}
		if p != preEmpty {
			if g.Cache, _, err = ccache.Open(dir, build, ccache.MismatchBypass); err == nil {
				_, err = Run(g)
			}
		}
		for i := range e.cells {
			if _, f := e.stored(p, i, rot); p == preDamaged && err == nil {
				err = e.damage(dir, i, f)
			}
		}
		if p == preResults && err == nil {
			err = os.RemoveAll(filepath.Join(dir, "sch"))
		}
		if p == preWarm || p == preBypass {
			e.shared[p] = dir
		}
	}
	policy := ccache.MismatchBypass
	if p == preRefresh {
		policy = ccache.MismatchRefresh
	}
	c, note, oerr := ccache.Open(dir, obs.BuildInfo{GoVersion: "test"}, policy)
	if foreign := p == preBypass || p == preRefresh; errors.Join(err, oerr) != nil || (note != "") != foreign || (c == nil) != (p == preBypass) {
		e.t.Fatalf("%s: cache %v, note %q, error %v", preNames[p], c != nil, note, errors.Join(err, oerr))
	}
	return c, dir
}

// check compares a run with its reference and with the classes want and the
// corrupt count predict gives (cached false: the run had no cache).
func check(out, ref *cacheRunOut, cached bool, want []cellCacheState, corrupt int64) error {
	var count [3]int64
	for _, c := range want {
		count[c]++
	}
	switch {
	case !bytes.Equal(out.json, ref.json) || !bytes.Equal(out.csv, ref.csv):
		return fmt.Errorf("report differs from the reference")
	case !maps.EqualFunc(out.traces, ref.traces, bytes.Equal):
		return fmt.Errorf("traces of cells %v differ from the reference's %v", slices.Sorted(maps.Keys(out.traces)), slices.Sorted(maps.Keys(ref.traces)))
	case !maps.EqualFunc(out.scheds, ref.scheds, bytes.Equal):
		return fmt.Errorf("schedules of cells %v delivered, the reference's %v", slices.Sorted(maps.Keys(out.scheds)), slices.Sorted(maps.Keys(ref.scheds)))
	case out.calls != len(want):
		return fmt.Errorf("%d progress calls for %d cells", out.calls, len(want))
	case (out.phases > 0) != (count[cellMiss] > 0):
		return fmt.Errorf("%d collective phases with %d predicted misses", out.phases, count[cellMiss])
	case (out.ctr != nil) != cached:
		return fmt.Errorf("cache counters %+v on a run with a cache: %v", out.ctr, cached)
	case !cached:
		return nil
	case [3]int64{out.ctr.Misses, out.ctr.ResultHits, out.ctr.ScheduleHits} != count || out.ctr.Corrupt != corrupt:
		return fmt.Errorf("counters %+v, want misses, result and schedule hits %v with %d corrupt", out.ctr, count, corrupt)
	case out.classes != nil && !slices.Equal(out.classes, want):
		return fmt.Errorf("cell classes %v, want %v", out.classes, want)
	case count[cellResultHit] == int64(len(want)) && out.ctr.BytesWritten != 0:
		return fmt.Errorf("a run of result hits wrote %d bytes", out.ctr.BytesWritten)
	}
	return nil
}

// draws runs pre-state p under option oi at each of its worker counts. Each
// run must reproduce its reference's bytes and match predict, two worker
// counts must read and write the same bytes, and a second run over the cache
// with the same options must be all result hits.
func (e *cacheEnum) draws(p cachePre, oi int) {
	o := cacheOptions[oi]
	ref := e.ref(o)
	rot := 2 * oi // every fault meets every strategy over the five options
	want := make([]cellCacheState, len(e.cells))
	var corrupt int64
	for i := range want {
		model, f := e.stored(p, i, rot)
		var n int64
		want[i], n = predict(model, f, o, i)
		corrupt += n
	}
	hits := slices.Repeat([]cellCacheState{cellResultHit}, len(want))
	var first *hostobs.CacheCounters
	for _, workers := range o.workers {
		e.drawn++
		name := fmt.Sprintf("%s/%s/workers=%d", preNames[p], o.name, workers)
		cache, dir := e.setUp(p, rot)
		g := statesGrid()
		g.Workers, g.Cache = workers, cache
		out := runOpts(e.t, g, o, true)
		switch err := check(out, ref, cache != nil, want, corrupt); {
		case err != nil:
			e.t.Errorf("%s: %v", name, err)
			continue
		case cache == nil:
			continue
		case first == nil:
			first = out.ctr
		case *out.ctr != *first:
			e.t.Errorf("%s: counters %+v, one worker's %+v", name, out.ctr, first)
		}
		if slices.Equal(want, hits) {
			continue // it wrote nothing, so it was its own second run
		}
		g.Cache = openCache(e.t, dir)
		if err := check(runOpts(e.t, g, o, true), ref, true, hits, 0); err != nil {
			e.t.Errorf("%s, second run: %v", name, err)
		}
	}
}

// TestCacheStates crosses every cache pre-state with every run option, with
// the host recorder on: whatever the cache holds — nothing, its own entries,
// another machine's, an interrupted sweep's, another grid's, a foreign
// build's, damaged ones, result entries without their schedules — a run at
// one worker or at four reports, traces and delivers schedules byte for
// byte as the cacheless one-worker run does, with exactly the hits, misses
// and corrupt entries predict gives, solves nothing when everything hits,
// and leaves a cache that a second run reads whole. Under -race every
// raceStride-th pre-state and option pair runs.
func TestCacheStates(t *testing.T) {
	e := newCacheEnum(t)
	stride := 1
	if raceEnabled {
		stride = raceStride
	}
	pairs := 0
	for p := range numPres {
		for oi := range cacheOptions {
			if pairs++; pairs%stride == 0 {
				e.draws(p, oi)
			}
		}
	}
	if stride == 1 && e.drawn != 60 {
		t.Errorf("%d draws, want 60", e.drawn)
	}
	t.Logf("%d draws of %d pre-state and option pairs", e.drawn, pairs)
}

const raceStride = 4

// The tests below keep the names of the hand-picked cache and determinism
// tests the enumeration replaced: each runs its scenario's draws.
func cacheDraws(t *testing.T, p cachePre, opt string) {
	newCacheEnum(t).draws(p, slices.IndexFunc(cacheOptions, func(o cacheOpts) bool { return o.name == opt }))
}

func TestCacheWarmRunByteIdentical(t *testing.T)              { cacheDraws(t, preWarm, "plain") }
func TestCacheWarmRunDeliversSampledTraces(t *testing.T)      { cacheDraws(t, preWarm, "sample2") }
func TestCacheMachineChangeServedByScheduleTier(t *testing.T) { cacheDraws(t, preMoved, "plain") }
func TestCacheWarmMachineSweep(t *testing.T)                  { cacheDraws(t, preWarm, "machines") }
func TestCacheCorruptEntriesRecompute(t *testing.T)           { cacheDraws(t, preDamaged, "plain") }
func TestCachePartialSweepResumes(t *testing.T)               { cacheDraws(t, prePartial, "plain") }
func TestCacheKeyedByGridKnobs(t *testing.T)                  { cacheDraws(t, preKeyed, "plain") }
func TestCacheScheduleCallbackBitIdentical(t *testing.T)      { cacheDraws(t, preWarm, "all") }
func TestCacheLateScheduleFailureDemotesToMiss(t *testing.T)  { cacheDraws(t, preDamaged, "machines") }
func TestCacheProbeWorkerIndependent(t *testing.T)            { cacheDraws(t, preDamaged, "machines") }
func TestHostObsOutputByteIdentical(t *testing.T)             { cacheDraws(t, preNone, "plain") }
func TestCampaignDeterministicAcrossWorkers(t *testing.T)     { cacheDraws(t, preNone, "all") }
func TestCampaignReproducible(t *testing.T)                   { cacheDraws(t, preNone, "schedules") }
func TestTraceSampling(t *testing.T)                          { cacheDraws(t, preNone, "sample2") }
