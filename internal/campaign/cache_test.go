package campaign

import (
	"bytes"
	"encoding/hex"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"esrp/internal/ccache"
	"esrp/internal/core"
	"esrp/internal/faultsim"
	"esrp/internal/hostobs"
	"esrp/internal/matgen"
	"esrp/internal/obs"
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
		draws, err := g.compileDraws()
		if err != nil {
			t.Fatal(err)
		}
		draws[c.seed].fill(&cell)
		if cell.Err != "" || (len(cell.Events) == 0) != c.failureFree {
			t.Fatalf("%s: cell has %d events, error %q", c.name, len(cell.Events), cell.Err)
		}
		// The probe's digest: a nil B is b = A·1.
		key := g.cellInputOf(&cell, (*ccache.Cache)(nil).Digest(m.A, m.B)).Key()
		if got := hex.EncodeToString(key[:]); got != c.want {
			t.Errorf("%s: key %s, want %s", c.name, got, c.want)
		}
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
		want[i] = runOpts(t, grid(i), cacheOpts{}, false).json
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
// path built on the stack and decoded into its slot of one array, its
// events share one rank array and its kernel string is interned, so what is
// left is the path's NUL-terminated copy, the events and their ranks, and
// the run's fixed objects spread over its cells. This grid reads 4.54 per
// cell (6.57 with a heap entry and kernel string per hit, 8.29 with one rank
// slice per event and a heap path per entry, 12.25 when every run hashed its
// systems and every entry went through os.ReadFile); the bound leaves room
// for a collection that empties the buffer pool mid-measurement.
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
	if perCell > 4.8 {
		t.Fatalf("%.2f allocations per warm cell, want ≤ 4.8", perCell)
	}
}

// A warm Run does no arithmetic on its systems and decodes every hit into a
// slot of one array, so what it allocates does not depend on the matrix:
// tinyGrid's cells over Poisson2D 16×16 and 64×64 cost the same bytes and
// objects per warm Run. (When every Run derived b = A·1 for its systems,
// 16×16 cost 23.7 KB per Run and 64×64 85.0 KB.) It measures as
// testing.AllocsPerRun does, on one P, and with collection off, so no
// emptied buffer pool reallocates in one batch and not the other; the least
// of five batches drops what the process's other goroutines allocate.
func TestWarmRunBytesIndependentOfRows(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const runs, batches = 10, 5
	perRun := func(n int) (bytes, objects uint64) {
		g := tinyGrid()
		g.Workers = 1
		g.Matrices = []MatrixSpec{{Name: "poisson", A: matgen.Poisson2D(n, n)}}
		g.Cache = openCache(t, t.TempDir())
		for range 2 { // cold, then one warm run to fill the pools
			if _, err := Run(g); err != nil {
				t.Fatal(err)
			}
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		bytes, objects = math.MaxUint64, math.MaxUint64
		for range batches {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				if _, err := Run(g); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
			objects = min(objects, after.Mallocs-before.Mallocs)
		}
		return bytes / runs, objects / runs
	}
	smallB, smallN := perRun(16)
	largeB, largeN := perRun(64)
	t.Logf("per warm Run: %d B in %d objects at 16×16, %d B in %d objects at 64×64", smallB, smallN, largeB, largeN)
	if smallB != largeB || smallN != largeN {
		t.Errorf("a warm Run over 64×64 costs %d B in %d objects, over 16×16 %d B in %d objects; want equal", largeB, largeN, smallB, smallN)
	}
}
