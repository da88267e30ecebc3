package campaign

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"esrp/internal/core"
	"esrp/internal/faultsim"
	"esrp/internal/matgen"
)

// perCellCompile is the reference the shared draws replaced: compile the
// cell's own scenario, then clamp its events to the cell's φ.
func perCellCompile(g Grid, c *Cell) (events []core.FailureSpec, clamped int, err error) {
	sc := g.Scenario
	sc.Nodes, sc.Seed = c.Nodes, c.Seed
	if events, err = sc.Compile(); err != nil {
		return nil, 0, err
	}
	if c.Strategy != core.StrategyNone.String() && c.Phi > 0 {
		for i := range events {
			if len(events[i].Ranks) > c.Phi {
				events[i].Ranks = events[i].Ranks[:c.Phi]
				clamped++
			}
		}
	}
	return events, clamped, nil
}

// drawGrid is a small grid of quick solves under a random failure process
// with blades wider than most of its φ values.
func drawGrid(rng *rand.Rand) Grid {
	sc := faultsim.Scenario{
		Model: faultsim.ModelExponential, MTBF: 40 + 80*rng.Float64(), Horizon: 12,
		GroupSize: 2 + rng.Intn(3), GroupProb: 0.5 + 0.5*rng.Float64(),
	}
	if rng.Intn(2) == 0 {
		sc.Model, sc.Shape = faultsim.ModelWeibull, 0.6+rng.Float64()
	}
	return Grid{
		Matrices:   []MatrixSpec{{Name: "poisson", A: matgen.Poisson2D(8, 8)}},
		Nodes:      []int{6, 8},
		Strategies: []core.Strategy{core.StrategyNone, core.StrategyESR, core.StrategyESRP, core.StrategyIMCR},
		Ts:         []int{5},
		Phis:       []int{1, 2, 3},
		Seeds:      []int64{rng.Int63(), rng.Int63(), rng.Int63()},
		Scenario:   sc,
		MaxIter:    12,
		Workers:    2,
	}
}

// One compile per (nodes, seed), viewed through each cell's φ, gives every
// cell the events and clamp count its own compile would — and a cell that
// narrows events does so on a copy, so nothing it does to them reaches the
// cells that share the draw.
func TestDrawsMatchPerCellCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	clampedCells, sharedCells := 0, 0
	for round := 0; round < 6; round++ {
		g := drawGrid(rng)
		rep, err := Run(g)
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]core.FailureSpec, len(rep.Cells))
		for i := range rep.Cells {
			c := &rep.Cells[i]
			events, clamped, err := perCellCompile(g, c)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(c.Events, events) || c.Clamped != clamped {
				t.Fatalf("round %d cell %d (%s n%d φ%d seed %d): events %v clamped %d, its own compile gives %v clamped %d",
					round, i, c.Strategy, c.Nodes, c.Phi, c.Seed, c.Events, c.Clamped, events, clamped)
			}
			want[i] = events
		}
		for i := range rep.Cells {
			c := &rep.Cells[i]
			if c.Clamped == 0 {
				sharedCells++
				continue
			}
			clampedCells++
			// Scribble over the clamped cell's view: its elements, and past
			// the end of a narrowed rank block.
			for j := range c.Events {
				c.Events[j].Ranks = append(c.Events[j].Ranks, -1)
				c.Events[j].Iteration = -1
			}
			for k := range rep.Cells {
				if k != i && !reflect.DeepEqual(rep.Cells[k].Events, want[k]) {
					t.Fatalf("round %d: writing to clamped cell %d's events changed cell %d's: %v, want %v",
						round, i, k, rep.Cells[k].Events, want[k])
				}
			}
			c.Events = want[i] // so the next scribbler finds this cell as it should be
		}
	}
	if clampedCells == 0 || sharedCells == 0 {
		t.Fatalf("%d clamped and %d unclamped cells: the scenarios exercise one side only", clampedCells, sharedCells)
	}
}

// A scenario that does not compile for one node count fails exactly that
// count's cells, with the compile error, identically without a cache, into
// an empty one and out of a full one.
func TestDrawCompileErrorOnEveryPath(t *testing.T) {
	grid := func() Grid {
		g := drawGrid(rand.New(rand.NewSource(7)))
		g.Nodes = []int{4, 8}
		g.Scenario.GroupSize = 4 // a blade as wide as the 4-node cluster
		return g
	}
	sc := grid().Scenario
	sc.Nodes = 4
	_, cerr := sc.Compile()
	if cerr == nil {
		t.Fatal("the scenario compiles on 4 nodes")
	}

	plain := runJSON(t, grid())
	dir := t.TempDir()
	for _, path := range []string{"cold", "warm"} {
		g := grid()
		g.Cache = openCache(t, dir)
		rep, err := Run(g)
		if err != nil {
			t.Fatal(err)
		}
		failed := 0
		for i := range rep.Cells {
			c := &rep.Cells[i]
			switch {
			case c.Nodes == 4 && c.Err != cerr.Error():
				t.Fatalf("%s: 4-node cell %d has error %q, want %q", path, i, c.Err, cerr)
			case c.Nodes == 4:
				failed++
			case c.Err != "":
				t.Fatalf("%s: 8-node cell %d failed: %s", path, i, c.Err)
			}
		}
		if failed == 0 {
			t.Fatalf("%s: no 4-node cells", path)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), plain) {
			t.Fatalf("%s cached report differs from the cache-less one", path)
		}
	}
}
