package campaign

import (
	"bytes"
	"runtime"
	"sort"
	"sync"
	"testing"

	"esrp/internal/core"
	"esrp/internal/faultsim"
	"esrp/internal/matgen"
	"esrp/internal/obs"
)

// oneContextGrid is a grid whose 24 cells ALL share one Prepared context
// (IMCR's prepKey ignores T and seed), so every worker solves cells of the
// same context at once, each on its own Workspace — the layout where
// workers contend hardest for the cursor and share the most read-only
// state.
func oneContextGrid() Grid {
	return Grid{
		Matrices:   []MatrixSpec{{Name: "poisson", A: matgen.Poisson2D(24, 24)}},
		Nodes:      []int{4},
		Strategies: []core.Strategy{core.StrategyIMCR},
		Ts:         []int{2, 3, 4, 5, 6, 8, 10, 12},
		Phis:       []int{1},
		Seeds:      []int64{1, 2, 3},
		Scenario: faultsim.Scenario{
			Model: faultsim.ModelExponential, MTBF: 300, Horizon: 40,
		},
		Workers: 8,
	}
}

// TestCampaignWorkerHammer runs the one-context grid with many more
// workers than contexts: 24 cells of one context, 8 workers, 4 simulated
// ranks per cell. Under -race this traps unsafe sharing anywhere in the
// cursor, the shared Prepared context or the per-worker workspace reuse;
// the result assertions pin that every cell still solves correctly.
func TestCampaignWorkerHammer(t *testing.T) {
	rep, err := Run(oneContextGrid())
	if err != nil {
		t.Fatal(err)
	}
	if want := 8 * 3; len(rep.Cells) != want {
		t.Fatalf("got %d cells, want %d", len(rep.Cells), want)
	}
	for _, c := range rep.Cells {
		if c.Err != "" {
			t.Errorf("cell T=%d seed=%d errored: %s", c.T, c.Seed, c.Err)
		}
		if !c.Converged {
			t.Errorf("cell T=%d seed=%d did not converge", c.T, c.Seed)
		}
	}
}

// TestCampaignDeterministicAcrossWorkers pins the byte-identity contract:
// JSON report, CSV export and every sampled trace must be identical for
// Workers ∈ {1, 3, NumCPU} on the one-context grid, whatever cells each
// worker happens to claim.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	collect := func(workers int) (jsonB, csvB []byte, traces map[int][]byte) {
		g := oneContextGrid()
		g.Workers = workers
		g.TraceSample = 5
		var mu sync.Mutex
		traces = map[int][]byte{}
		g.OnCellTrace = func(index int, c *Cell, tr *obs.Trace) {
			var buf bytes.Buffer
			if err := tr.WriteChrome(&buf); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			traces[index] = buf.Bytes()
			mu.Unlock()
		}
		rep, err := Run(g)
		if err != nil {
			t.Fatal(err)
		}
		var jb, cb bytes.Buffer
		if err := rep.WriteJSON(&jb); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteCSV(&cb); err != nil {
			t.Fatal(err)
		}
		return jb.Bytes(), cb.Bytes(), traces
	}

	workerCounts := []int{1, 3, runtime.NumCPU()}
	refJSON, refCSV, refTraces := collect(workerCounts[0])
	if len(refTraces) == 0 {
		t.Fatal("no traces sampled")
	}
	for _, w := range workerCounts[1:] {
		jb, cb, tr := collect(w)
		if !bytes.Equal(refJSON, jb) {
			t.Errorf("JSON differs between workers=1 and workers=%d", w)
		}
		if !bytes.Equal(refCSV, cb) {
			t.Errorf("CSV differs between workers=1 and workers=%d", w)
		}
		if len(tr) != len(refTraces) {
			t.Errorf("workers=%d sampled %d traces, workers=1 sampled %d", w, len(tr), len(refTraces))
			continue
		}
		for idx, a := range refTraces {
			if !bytes.Equal(a, tr[idx]) {
				t.Errorf("cell %d trace differs between workers=1 and workers=%d", idx, w)
			}
		}
	}
}

// TestCampaignProgressExact pins the progress contract under the maximal
// worker count: the callback receives every value of 1..total exactly once
// (atomic post-increment), and total is the grid size on every call. Run
// with -race this also proves the callback's done counter is not a torn or
// repeated snapshot.
func TestCampaignProgressExact(t *testing.T) {
	g := oneContextGrid()
	var mu sync.Mutex
	var dones []int
	g.Progress = func(done, total int) {
		mu.Lock()
		dones = append(dones, done)
		mu.Unlock()
		if total != 8*3 {
			t.Errorf("progress total %d, want %d", total, 8*3)
		}
	}
	rep, err := Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(dones) != len(rep.Cells) {
		t.Fatalf("progress fired %d times, want %d", len(dones), len(rep.Cells))
	}
	sort.Ints(dones)
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("progress done values not exactly 1..%d: position %d holds %d", len(rep.Cells), i, d)
		}
	}
}
