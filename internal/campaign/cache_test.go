package campaign

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
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

// openCache opens a test cache in dir (creating a fresh one on first use).
func openCache(t *testing.T, dir string) *ccache.Cache {
	t.Helper()
	c, note, err := ccache.Open(dir, obs.BuildInfo{GoVersion: "test"}, ccache.MismatchBypass)
	if err != nil {
		t.Fatal(err)
	}
	if note != "" {
		t.Fatalf("unexpected cache note: %s", note)
	}
	return c
}

// runJSON runs g and renders its report.
func runJSON(t *testing.T, g Grid) []byte {
	t.Helper()
	rep, err := Run(g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// cacheCounters runs g with a recorder attached and returns the cache
// section of its telemetry alongside the report bytes.
func cacheCounters(t *testing.T, g Grid) ([]byte, *hostobs.CacheCounters) {
	t.Helper()
	rec := hostobs.NewCampaignRecorder()
	g.HostObs = rec
	out := runJSON(t, g)
	tel := rec.Telemetry()
	if g.Cache != nil && tel.Cache == nil {
		t.Fatal("cache-backed run produced no cache telemetry")
	}
	return out, tel.Cache
}

// A warm re-run must be byte-identical to its cold run and touch zero
// solves — at any worker count. This is the cache's core contract: hits
// land at grid indices, so scheduling cannot perturb the report.
func TestCacheWarmRunByteIdentical(t *testing.T) {
	dir := t.TempDir()
	cold := tinyGrid()
	cold.Cache = openCache(t, dir)
	coldJSON, coldCtr := cacheCounters(t, cold)
	if coldCtr.Misses == 0 || coldCtr.ResultHits != 0 || coldCtr.ScheduleHits != 0 {
		t.Fatalf("cold run counters: %+v", coldCtr)
	}

	baseline := runJSON(t, tinyGrid()) // cache-less reference
	if !bytes.Equal(coldJSON, baseline) {
		t.Fatal("cold cache-backed run differs from the cache-less run")
	}

	for _, workers := range []int{1, 3, 4} {
		warm := tinyGrid()
		warm.Workers = workers
		warm.Cache = openCache(t, dir)
		warmJSON, ctr := cacheCounters(t, warm)
		if !bytes.Equal(warmJSON, coldJSON) {
			t.Fatalf("warm run (workers=%d) is not byte-identical to the cold run", workers)
		}
		if ctr.Misses != 0 || ctr.ScheduleHits != 0 || ctr.ResultHits != coldCtr.Misses {
			t.Fatalf("warm run (workers=%d) counters: %+v (want %d pure result hits)", workers, ctr, coldCtr.Misses)
		}
	}
}

// A sampled cell delivers its trace on a warm run too: cold and warm runs
// with TraceSample = 1 hand over the same indices and byte-identical traces,
// while the warm report and the cache directory stay what the cold run left.
// The warm run walks the cached schedules: zero misses, and zero solves —
// not one collective phase.
func TestCacheWarmRunDeliversSampledTraces(t *testing.T) {
	dir := t.TempDir()
	type outcome struct {
		report []byte
		traces map[int][]byte
		files  map[string][]byte
		cache  hostobs.CacheCounters
		phases int64
	}
	run := func() outcome {
		g := tinyGrid()
		g.Cache = openCache(t, dir)
		g.TraceSample = 1
		rec := hostobs.NewCampaignRecorder()
		g.HostObs = rec
		var mu sync.Mutex
		o := outcome{traces: map[int][]byte{}, files: map[string][]byte{}}
		g.OnCellTrace = func(index int, c *Cell, tr *obs.Trace) {
			var buf bytes.Buffer
			if err := tr.WriteChrome(&buf); err != nil {
				t.Error(err)
			}
			mu.Lock()
			o.traces[index] = buf.Bytes()
			mu.Unlock()
		}
		o.report = runJSON(t, g)
		tel := rec.Telemetry()
		o.cache = *tel.Cache
		for _, m := range tel.Barrier.Members {
			o.phases += m.Phases
		}
		if err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			o.files[path], err = os.ReadFile(path)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return o
	}
	cold, warm := run(), run()
	if len(cold.traces) == 0 || len(warm.traces) != len(cold.traces) {
		t.Fatalf("warm run delivered %d traces, cold %d", len(warm.traces), len(cold.traces))
	}
	for i, tr := range cold.traces {
		if !bytes.Equal(warm.traces[i], tr) {
			t.Errorf("cell %d: warm trace differs from the cold one", i)
		}
	}
	if cold.phases == 0 {
		t.Fatal("the cold run completed no collective phase: the solve witness is vacuous")
	}
	if warm.cache.Misses != 0 || warm.cache.ResultHits != cold.cache.Misses || warm.phases != 0 {
		t.Errorf("warm run: cache %+v, %d collective phases; want %d result hits, no miss, no phase", warm.cache, warm.phases, cold.cache.Misses)
	}
	if !bytes.Equal(warm.report, cold.report) {
		t.Error("warm report differs from the cold one")
	}
	if len(warm.files) != len(cold.files) {
		t.Fatalf("cache holds %d files after the warm run, %d after the cold one", len(warm.files), len(cold.files))
	}
	for path, b := range cold.files {
		if !bytes.Equal(warm.files[path], b) {
			t.Errorf("%s changed on the warm run", path)
		}
	}
}

// A machine-point-only change must be served entirely from the schedule
// tier — zero solves — and match a cacheless cold run under that model
// bit-for-bit (the replay-equivalence invariant, now across processes).
func TestCacheMachineChangeServedByScheduleTier(t *testing.T) {
	dir := t.TempDir()
	warmup := tinyGrid()
	warmup.Cache = openCache(t, dir)
	if _, err := Run(warmup); err != nil {
		t.Fatal(err)
	}

	slow := cluster.DefaultCostModel()
	slow.Latency *= 4
	slow.BytePeriod *= 2

	warm := tinyGrid()
	warm.CostModel = &slow
	warm.Cache = openCache(t, dir)
	warmJSON, ctr := cacheCounters(t, warm)
	if ctr.Misses != 0 || ctr.ResultHits != 0 || ctr.ScheduleHits == 0 {
		t.Fatalf("machine-change counters: %+v (want pure schedule hits)", ctr)
	}

	ref := tinyGrid()
	ref.CostModel = &slow
	if !bytes.Equal(warmJSON, runJSON(t, ref)) {
		t.Fatal("schedule-tier re-cost differs from a live solve under the new model")
	}

	// The re-cost upgraded the entries: a further run at the same model is
	// pure result hits.
	again := tinyGrid()
	again.CostModel = &slow
	again.Cache = openCache(t, dir)
	againJSON, ctr2 := cacheCounters(t, again)
	if ctr2.Misses != 0 || ctr2.ScheduleHits != 0 || ctr2.ResultHits == 0 {
		t.Fatalf("post-upgrade counters: %+v (want pure result hits)", ctr2)
	}
	if !bytes.Equal(againJSON, warmJSON) {
		t.Fatal("upgraded entries changed the report")
	}
}

// A warm machine sweep (Grid.Machines) replays cached schedules instead
// of solving, and its machine_cells match the cold sweep's exactly.
func TestCacheWarmMachineSweep(t *testing.T) {
	dir := t.TempDir()
	fast := cluster.DefaultCostModel()
	fast.FlopTime /= 2
	machines := []MachinePoint{
		{Name: "base", Model: cluster.DefaultCostModel()},
		{Name: "fast", Model: fast},
	}

	cold := tinyGrid()
	cold.Machines = machines
	cold.Cache = openCache(t, dir)
	coldJSON, _ := cacheCounters(t, cold)

	warm := tinyGrid()
	warm.Machines = machines
	warm.Cache = openCache(t, dir)
	warmJSON, ctr := cacheCounters(t, warm)
	if ctr.Misses != 0 {
		t.Fatalf("warm sweep counters: %+v (want zero misses)", ctr)
	}
	if !bytes.Equal(warmJSON, coldJSON) {
		t.Fatal("warm machine sweep differs from the cold sweep")
	}
}

// Corrupting entries between runs must force recomputation of exactly the
// damaged cells — byte-identical output, never a crash, never trust.
func TestCacheCorruptEntriesRecompute(t *testing.T) {
	dir := t.TempDir()
	cold := tinyGrid()
	cold.Cache = openCache(t, dir)
	coldJSON, coldCtr := cacheCounters(t, cold)

	// Damage every result-tier entry three ways: truncate, flip, garble.
	var resFiles []string
	if err := filepath.WalkDir(filepath.Join(dir, "res"), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			resFiles = append(resFiles, path)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if int64(len(resFiles)) != coldCtr.Misses {
		t.Fatalf("expected %d result entries, found %d", coldCtr.Misses, len(resFiles))
	}
	for i, path := range resFiles {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		switch i % 3 {
		case 0:
			data = data[:len(data)/2]
		case 1:
			data[len(data)-1] ^= 0x01
		case 2:
			copy(data, "BADMAGIC")
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	warm := tinyGrid()
	warm.Cache = openCache(t, dir)
	warmJSON, ctr := cacheCounters(t, warm)
	if !bytes.Equal(warmJSON, coldJSON) {
		t.Fatal("recomputed run differs from the cold run")
	}
	if ctr.ResultHits != 0 || ctr.Misses != coldCtr.Misses {
		t.Fatalf("corrupted-cache counters: %+v (want all misses)", ctr)
	}
	if ctr.Corrupt == 0 {
		t.Fatal("corruption went uncounted")
	}

	// The misses healed the cache: a third run is all hits again.
	again := tinyGrid()
	again.Cache = openCache(t, dir)
	againJSON, ctr2 := cacheCounters(t, again)
	if !bytes.Equal(againJSON, coldJSON) || ctr2.Misses != 0 {
		t.Fatalf("cache did not heal: counters %+v", ctr2)
	}
}

// An interrupted sweep leaves a partial cache; resuming reuses what
// completed and computes the rest.
func TestCachePartialSweepResumes(t *testing.T) {
	dir := t.TempDir()
	// "Interrupt" by running a narrower grid first: one strategy only.
	partial := tinyGrid()
	partial.Strategies = []core.Strategy{core.StrategyESRP}
	partial.Cache = openCache(t, dir)
	_, pc := cacheCounters(t, partial)

	full := tinyGrid()
	full.Cache = openCache(t, dir)
	fullJSON, fc := cacheCounters(t, full)
	if fc.ResultHits != pc.Misses || fc.Misses == 0 {
		t.Fatalf("resume counters: partial=%+v full=%+v", pc, fc)
	}
	if !bytes.Equal(fullJSON, runJSON(t, tinyGrid())) {
		t.Fatal("resumed run differs from a cold run")
	}
}

// Cells keyed equal across different grids must not collide when any
// solve-relevant grid knob differs: the key covers rtol and spares.
func TestCacheKeyedByGridKnobs(t *testing.T) {
	dir := t.TempDir()
	g1 := tinyGrid()
	g1.Cache = openCache(t, dir)
	if _, err := Run(g1); err != nil {
		t.Fatal(err)
	}

	g2 := tinyGrid()
	g2.Rtol = 1e-6 // looser: fewer iterations — must not reuse 1e-8 entries
	g2.Cache = openCache(t, dir)
	json2, ctr := cacheCounters(t, g2)
	if ctr.ResultHits != 0 || ctr.ScheduleHits != 0 {
		t.Fatalf("rtol change hit stale entries: %+v", ctr)
	}
	ref := tinyGrid()
	ref.Rtol = 1e-6
	if !bytes.Equal(json2, runJSON(t, ref)) {
		t.Fatal("rtol-changed run differs from its cold reference")
	}
}

// TestCellKeyGolden pins the campaign → cache key mapping: the content
// address cellInputOf gives an ESRP cell of tinyGrid, failure-free and under
// its failure process (seed 2; seed 1 draws no event). ccache.TestKeyGolden
// pins the encoding of a CellInput; this pins which grid and cell values go
// into it. A change here orphans every cache written before it, so it must
// be deliberate.
func TestCellKeyGolden(t *testing.T) {
	for _, c := range []struct {
		name        string
		failureFree bool
		seed        int // index into tinyGrid's Seeds
		want        string
	}{
		{"failure-free", true, 0, "a88afaf3fe3a80220fe09ae6dd69018e09a1e1f579dbdd8dcba569598a888647"},
		{"failure-laden", false, 1, "f333184259846a5e7839fcf625bf65fd988ec65add6429b288b40a987a879d99"},
	} {
		g := tinyGrid()
		if c.failureFree {
			g.Scenario = faultsim.Scenario{}
		}
		g, err := g.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		m := g.Matrices[0]
		cell := Cell{Matrix: m.Name, Nodes: g.Nodes[0], Strategy: "ESRP", T: g.Ts[0], Phi: g.Phis[0],
			Seed: g.Seeds[c.seed], strat: core.StrategyESRP}
		g.compileDraws()[c.seed].fill(&cell)
		if cell.Err != "" || (len(cell.Events) == 0) != c.failureFree {
			t.Fatalf("%s: cell has %d events, error %q", c.name, len(cell.Events), cell.Err)
		}
		key := g.cellInputOf(&cell, ccache.MatrixDigest(m.A, m.B)).Key()
		if got := hex.EncodeToString(key[:]); got != c.want {
			t.Errorf("%s: key %s, want %s", c.name, got, c.want)
		}
	}
}

// The -schedules export path and the schedule tier share one serializer:
// a schedule delivered via OnCellSchedule from a warm (cached) sweep is
// bit-identical to the cold recording.
func TestCacheScheduleCallbackBitIdentical(t *testing.T) {
	dir := t.TempDir()
	machines := []MachinePoint{{Name: "base", Model: cluster.DefaultCostModel()}}

	run := func(g Grid) map[int][]byte {
		g.Machines = machines
		out := make(map[int][]byte)
		var mu sync.Mutex
		g.OnCellSchedule = func(index int, c *Cell, s *replay.Schedule) {
			b, err := s.EncodeBinary()
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			out[index] = b
			mu.Unlock()
		}
		if _, err := Run(g); err != nil {
			t.Fatal(err)
		}
		return out
	}

	cold := tinyGrid()
	cold.Cache = openCache(t, dir)
	coldScheds := run(cold)

	warm := tinyGrid()
	warm.Cache = openCache(t, dir)
	warmScheds := run(warm)

	if len(coldScheds) == 0 || len(coldScheds) != len(warmScheds) {
		t.Fatalf("schedule counts differ: cold %d warm %d", len(coldScheds), len(warmScheds))
	}
	for idx, cb := range coldScheds {
		if !bytes.Equal(cb, warmScheds[idx]) {
			t.Fatalf("cell %d: cached schedule differs from the recording", idx)
		}
	}
}

// A schedule entry can pass the probe's frame check and still be unusable:
// the decode and the re-cost now run on the cell's worker, so both failures
// surface late. Either way the cell is demoted to a miss, solved live, and
// its entries rewritten — byte-identical output, corruption counted, healed.
func TestCacheLateScheduleFailureDemotesToMiss(t *testing.T) {
	dir := t.TempDir()
	machines := []MachinePoint{{Name: "base", Model: cluster.DefaultCostModel()}}
	cold := tinyGrid()
	cold.Machines = machines
	cold.Cache = openCache(t, dir)
	coldJSON, coldCtr := cacheCounters(t, cold)

	var schedFiles []string
	if err := filepath.WalkDir(filepath.Join(dir, "sch"), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			schedFiles = append(schedFiles, path)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if int64(len(schedFiles)) != coldCtr.Misses {
		t.Fatalf("expected %d schedule entries, found %d", coldCtr.Misses, len(schedFiles))
	}
	// Re-frame each entry around a damaged schedule: alternately one that
	// does not decode (a view names a rank past the node count) and one
	// that decodes but cannot re-cost (a rank waits for a message no rank
	// sends).
	undecodable := 0
	for i, path := range schedFiles {
		s, err := ccache.ReadScheduleFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			s.Views = append(s.Views, []int{s.Nodes})
			undecodable++
		} else {
			rec := replay.NewRecorder()
			rec.Init(s.Nodes)
			rec.Rank(0).Recv(1)
			s = rec.Schedule()
		}
		if err := ccache.WriteScheduleFile(path, s); err != nil {
			t.Fatal(err)
		}
	}

	warm := tinyGrid()
	warm.Machines = machines
	warm.Cache = openCache(t, dir)
	warmJSON, ctr := cacheCounters(t, warm)
	if !bytes.Equal(warmJSON, coldJSON) {
		t.Fatal("run over damaged schedules differs from the cold run")
	}
	if ctr.ResultHits != 0 || ctr.ScheduleHits != 0 || ctr.Misses != coldCtr.Misses {
		t.Fatalf("damaged-schedule counters: %+v (want %d misses and no hits)", ctr, coldCtr.Misses)
	}
	if ctr.Corrupt != int64(undecodable) {
		t.Fatalf("%d undecodable schedules, %d counted corrupt", undecodable, ctr.Corrupt)
	}

	again := tinyGrid()
	again.Machines = machines
	again.Cache = openCache(t, dir)
	againJSON, ctr2 := cacheCounters(t, again)
	if !bytes.Equal(againJSON, coldJSON) || ctr2.Misses != 0 || ctr2.Corrupt != 0 {
		t.Fatalf("cache did not heal: counters %+v", ctr2)
	}
}

// Two runs over different systems share one cache handle at once, cold and
// then warm: each reproduces its cache-less report byte for byte, and the
// warm pass solves nothing. The handle's digest memo is the state they share;
// every pass builds its matrices afresh, so both runs write it each time (CI
// runs this under -race -count=10).
func TestCacheSharedByConcurrentRuns(t *testing.T) {
	grid := func(i int) Grid {
		g := tinyGrid()
		if i == 1 {
			g.Matrices = []MatrixSpec{{Name: "emilia", A: matgen.EmiliaLike(6, 6, 6, 1)}}
		}
		return g
	}
	var want [2][]byte
	for i := range want {
		want[i] = runJSON(t, grid(i))
	}
	cache := openCache(t, t.TempDir())
	for _, pass := range []string{"cold", "warm"} {
		var got [2]bytes.Buffer
		var misses [2]int64
		var errs [2]error
		var wg sync.WaitGroup
		for i := range want {
			wg.Add(1)
			go func() {
				defer wg.Done()
				g := grid(i)
				g.Cache = cache
				rec := hostobs.NewCampaignRecorder()
				g.HostObs = rec
				rep, err := Run(g)
				if err == nil {
					err = rep.WriteJSON(&got[i])
					misses[i] = rec.Telemetry().Cache.Misses
				}
				errs[i] = err
			}()
		}
		wg.Wait()
		for i := range want {
			if errs[i] != nil {
				t.Fatalf("%s run %d: %v", pass, i, errs[i])
			}
			if !bytes.Equal(got[i].Bytes(), want[i]) {
				t.Fatalf("%s run %d differs from its cache-less report", pass, i)
			}
			if pass == "warm" && misses[i] != 0 {
				t.Fatalf("warm run %d: %d misses, want 0", i, misses[i])
			}
		}
	}
}

// A warm sweep's allocations per cell at one worker: the digest comes from
// the handle's memo, each entry is read into a recycled buffer through a
// path built on the stack, and its events share one rank array, so what is
// left is the key, the path's NUL-terminated copy and the decoded entry's
// four objects. This grid reads 6.57 per cell (8.29 with one rank slice per
// event and a heap path per entry, 12.25 when every run hashed its systems
// and every entry went through os.ReadFile); the bound leaves room for a
// collection that empties the buffer pool mid-measurement.
func TestWarmSweepAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates and drops pooled buffers on its own")
	}
	g := tinyGrid()
	g.Workers = 1
	g.Ts = []int{10, 20, 50}
	g.Phis = []int{1, 2}
	g.Cache = openCache(t, t.TempDir())
	rep, err := Run(g)
	if err != nil {
		t.Fatal(err)
	}
	cells := float64(len(rep.Cells))
	perCell := testing.AllocsPerRun(20, func() {
		if _, err := Run(g); err != nil {
			t.Fatal(err)
		}
	}) / cells
	t.Logf("%.2f allocations per warm cell", perCell)
	if perCell > 6.8 {
		t.Fatalf("%.2f allocations per warm cell, want ≤ 6.8", perCell)
	}
}

// The probe runs on the worker pool, and what it finds does not depend on
// how many workers there are: over a cache with one truncated and one
// bit-flipped result entry, one garbled and one missing schedule, a machine
// sweep reproduces the cold report byte for byte at every worker count, with
// the hit, miss, corruption and I/O counts of the one-worker run. (CI runs
// this under -race, at GOMAXPROCS 2 as well.)
func TestCacheProbeWorkerIndependent(t *testing.T) {
	machines := []MachinePoint{{Name: "base", Model: cluster.DefaultCostModel()}}
	damaged := t.TempDir()
	cold := tinyGrid()
	cold.Machines = machines
	cold.Cache = openCache(t, damaged)
	coldJSON := runJSON(t, cold)

	entries := func(tier string) []string {
		files, err := filepath.Glob(filepath.Join(damaged, tier, "*", "*"))
		if err != nil || len(files) < 4 {
			t.Fatalf("%s tier: %d entries (err %v), need 4", tier, len(files), err)
		}
		return files // sorted, and both tiers name entries by key: index i is one cell
	}
	rewrite := func(path string, damage func([]byte) []byte) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, damage(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	res, sch := entries("res"), entries("sch")
	rewrite(res[0], func(d []byte) []byte { return d[:len(d)/2] })
	rewrite(res[1], func(d []byte) []byte { d[len(d)-2] ^= 0x10; return d })
	rewrite(sch[2], func(d []byte) []byte { copy(d[len(d)/2:], "GARBAGE!"); return d })
	if err := os.Remove(sch[3]); err != nil {
		t.Fatal(err)
	}

	var first *hostobs.CacheCounters
	for _, workers := range []int{1, 2, 8} {
		dir := t.TempDir() // every run heals its cache, so each gets its own copy of the damage
		if err := os.CopyFS(dir, os.DirFS(damaged)); err != nil {
			t.Fatal(err)
		}
		g := tinyGrid()
		g.Machines = machines
		g.Workers = workers
		g.Cache = openCache(t, dir)
		warmJSON, ctr := cacheCounters(t, g)
		if !bytes.Equal(warmJSON, coldJSON) {
			t.Fatalf("workers=%d: report over the damaged cache differs from the cold run", workers)
		}
		if ctr.Misses != 4 || ctr.Corrupt != 3 || ctr.ResultHits != int64(len(res))-4 {
			t.Fatalf("workers=%d: counters %+v, want 4 misses (3 of them corrupt entries) and %d result hits", workers, ctr, len(res)-4)
		}
		if first == nil {
			first = ctr
		} else if *ctr != *first {
			t.Fatalf("workers=%d: counters %+v, one worker counted %+v", workers, ctr, first)
		}
	}
}
