package campaign

import (
	"bytes"
	"encoding/json"
	"flag"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"esrp/internal/cluster"
	"esrp/internal/core"
	"esrp/internal/faultsim"
	"esrp/internal/hostobs"
	"esrp/internal/matgen"
)

var updateCounts = flag.Bool("update", false, "rewrite testdata/counts.json from this build")

// countsGrid is CI's cache-determinism grid (poisson2d, 8 nodes, esrp and
// imcr, T 10 and 20, 2 seeds, exponential failures with MTBF 500 over 80
// iterations) on a 16×16 system.
func countsGrid(workers int) Grid {
	return Grid{
		Matrices:   []MatrixSpec{{Name: "poisson2d-16", A: matgen.Poisson2D(16, 16)}},
		Nodes:      []int{8},
		Strategies: []core.Strategy{core.StrategyESRP, core.StrategyIMCR},
		Ts:         []int{10, 20},
		Phis:       []int{1},
		Seeds:      []int64{1, 2},
		Scenario:   faultsim.Scenario{Model: faultsim.ModelExponential, MTBF: 500, Horizon: 80},
		Workers:    workers,
	}
}

// sweepCounts runs countsGrid into a fresh cache four ways — cold, warm,
// warm under another machine point, and then under a third one, over the
// entries the second machine left — and returns each run's cache counters
// as the host recorder reports them: solves (misses), result and schedule
// hits, and the corrupt entries and bytes read and written it copies from
// Cache.Stats.
func sweepCounts(t *testing.T, workers int) map[string]*hostobs.CacheCounters {
	t.Helper()
	dir := t.TempDir()
	moved := movedModel()
	fast := moved
	fast.FlopTime /= 2
	out := map[string]*hostobs.CacheCounters{}
	for _, run := range []struct {
		name  string
		model *cluster.CostModel
	}{{"cold", nil}, {"warm", nil}, {"machine", &moved}, {"machine-fast", &fast}} {
		g := countsGrid(workers)
		g.CostModel = run.model
		g.Cache = openCache(t, dir)
		out[run.name] = runOpts(t, g, cacheOpts{}, true).ctr
	}
	return out
}

// TestSweepCounts pins what a small failure-laden sweep does to its cache —
// how many cells solve, hit either tier or read a corrupt entry, and how
// many bytes move — at one worker and at four. A change that makes the
// sweep solve, read or write more shows here as a diff of
// testdata/counts.json; regenerate it with -update and say why.
func TestSweepCounts(t *testing.T) {
	got := sweepCounts(t, 1)
	same := func(a, b *hostobs.CacheCounters) bool { return *a == *b }
	if four := sweepCounts(t, 4); !maps.EqualFunc(got, four, same) {
		t.Fatalf("counts depend on the worker count:\n1 worker:  %s\n4 workers: %s", countsJSON(t, got), countsJSON(t, four))
	}
	path := filepath.Join("testdata", "counts.json")
	data := countsJSON(t, got)
	if *updateCounts {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("sweep counts changed (regenerate with -update if intended):\n got %s\nwant %s", data, want)
	}
}

func countsJSON(t *testing.T, counts map[string]*hostobs.CacheCounters) []byte {
	t.Helper()
	data, err := json.MarshalIndent(counts, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}
