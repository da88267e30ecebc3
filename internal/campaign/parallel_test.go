package campaign

import (
	"sort"
	"sync"
	"testing"

	"esrp/internal/core"
	"esrp/internal/faultsim"
	"esrp/internal/matgen"
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
	rep := mustRun(t, oneContextGrid())
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
	rep := mustRun(t, g)
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
