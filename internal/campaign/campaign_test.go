package campaign

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"esrp/internal/core"
	"esrp/internal/faultsim"
	"esrp/internal/matgen"
	"esrp/internal/obs"
)

func tinyGrid() Grid {
	return Grid{
		Matrices:   []MatrixSpec{{Name: "poisson", A: matgen.Poisson2D(32, 32)}},
		Nodes:      []int{6},
		Strategies: []core.Strategy{core.StrategyESR, core.StrategyESRP, core.StrategyIMCR},
		Ts:         []int{10},
		Phis:       []int{1},
		Seeds:      []int64{1, 2},
		Scenario: faultsim.Scenario{
			Model: faultsim.ModelExponential, MTBF: 400, Horizon: 60,
		},
		Workers: 4,
	}
}

func TestRunTinyGrid(t *testing.T) {
	rep, err := Run(tinyGrid())
	if err != nil {
		t.Fatal(err)
	}
	// 1 matrix × 1 node count × (ESR + ESRP + IMCR) × 1 T × 1 φ × 2 seeds.
	if want := 3 * 2; len(rep.Cells) != want {
		t.Fatalf("got %d cells, want %d", len(rep.Cells), want)
	}
	if len(rep.Aggregates) != 3 {
		t.Fatalf("got %d aggregates, want 3", len(rep.Aggregates))
	}
	for _, c := range rep.Cells {
		if c.Err != "" {
			t.Errorf("cell %s/%s T=%d φ=%d seed=%d errored: %s", c.Matrix, c.Strategy, c.T, c.Phi, c.Seed, c.Err)
		}
		if !c.Converged {
			t.Errorf("cell %s seed %d did not converge", c.Strategy, c.Seed)
		}
	}
	for _, a := range rep.Aggregates {
		if a.Seeds != 2 || a.ConvergedRate != 1 {
			t.Errorf("aggregate %+v: want 2 seeds, full convergence", a)
		}
		if a.MedianTime <= 0 || a.P90Time < a.P10Time {
			t.Errorf("aggregate times inconsistent: %+v", a)
		}
	}
}

// The same grid must produce byte-identical JSON regardless of worker
// scheduling — the reproducibility contract of the campaign engine.
func TestCampaignReproducible(t *testing.T) {
	render := func(workers int) []byte {
		g := tinyGrid()
		g.Workers = workers
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
	a, b, c := render(1), render(4), render(4)
	if !bytes.Equal(a, b) || !bytes.Equal(b, c) {
		t.Fatal("campaign JSON differs across runs/worker counts")
	}
}

// A spare-pool grid: events beyond the pool shrink the cluster, and the
// aggregates surface it.
func TestCampaignSparePoolShrinks(t *testing.T) {
	g := Grid{
		Matrices:   []MatrixSpec{{Name: "poisson", A: matgen.Poisson2D(40, 40)}},
		Nodes:      []int{8},
		Strategies: []core.Strategy{core.StrategyESR},
		Phis:       []int{1},
		Seeds:      []int64{5},
		Spares:     1,
		Scenario: faultsim.Scenario{
			Model: faultsim.ModelFixed,
			Schedule: []core.FailureSpec{
				{Iteration: 15, Ranks: []int{2}},
				{Iteration: 35, Ranks: []int{5}},
				{Iteration: 55, Ranks: []int{1}},
			},
		},
	}
	rep, err := Run(g)
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Cells[0]
	if c.Err != "" || !c.Converged {
		t.Fatalf("cell failed: err=%q converged=%v", c.Err, c.Converged)
	}
	if c.ActiveNodes != 6 {
		t.Fatalf("active nodes %d, want 6 (two shrinks past the 1-spare pool)", c.ActiveNodes)
	}
	if len(c.Recoveries) != 3 {
		t.Fatalf("got %d recoveries, want 3", len(c.Recoveries))
	}
	if rep.Aggregates[0].ShrunkCells != 1 {
		t.Fatalf("aggregate shrunk cells = %d, want 1", rep.Aggregates[0].ShrunkCells)
	}
}

// Events wider than the cell's φ are clamped, not fatal.
func TestCampaignClampsWideEvents(t *testing.T) {
	g := Grid{
		Matrices:   []MatrixSpec{{Name: "poisson", A: matgen.Poisson2D(32, 32)}},
		Nodes:      []int{8},
		Strategies: []core.Strategy{core.StrategyESR},
		Phis:       []int{1},
		Seeds:      []int64{1},
		Scenario: faultsim.Scenario{
			Model: faultsim.ModelFixed,
			Schedule: []core.FailureSpec{
				{Iteration: 20, Ranks: []int{2, 3}}, // ψ = 2 > φ = 1
			},
		},
	}
	rep, err := Run(g)
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Cells[0]
	if c.Err != "" {
		t.Fatalf("clamped cell errored: %s", c.Err)
	}
	if c.Clamped != 1 || len(c.Events[0].Ranks) != 1 {
		t.Fatalf("clamping not applied: clamped=%d event ranks=%v", c.Clamped, c.Events[0].Ranks)
	}
}

func TestWriteJSONAndCSV(t *testing.T) {
	g := tinyGrid()
	g.Strategies = []core.Strategy{core.StrategyESR}
	g.Seeds = []int64{1}
	rep, err := Run(g)
	if err != nil {
		t.Fatal(err)
	}
	var jb bytes.Buffer
	if err := rep.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(jb.Bytes(), &back); err != nil {
		t.Fatalf("exported JSON does not round-trip: %v", err)
	}
	if len(back.Cells) != len(rep.Cells) || len(back.Aggregates) != len(rep.Aggregates) {
		t.Fatal("JSON round-trip lost cells or aggregates")
	}

	var cb bytes.Buffer
	if err := rep.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(cb.String()), "\n")
	if len(lines) != 1+len(rep.Cells) {
		t.Fatalf("CSV has %d lines, want %d", len(lines), 1+len(rep.Cells))
	}
	if !strings.HasPrefix(lines[0], "matrix,nodes,strategy") {
		t.Fatalf("unexpected CSV header %q", lines[0])
	}
}

func TestRenderAndSummary(t *testing.T) {
	rep, err := Run(tinyGrid())
	if err != nil {
		t.Fatal(err)
	}
	tbl := Render(rep)
	if !strings.Contains(tbl, "ESR") || !strings.Contains(tbl, "IMCR") || !strings.Contains(tbl, "poisson") {
		t.Fatalf("render missing groups:\n%s", tbl)
	}
	sum := Summary(rep)
	if !strings.Contains(sum, "campaign:") || !strings.Contains(sum, "fastest group") {
		t.Fatalf("summary incomplete:\n%s", sum)
	}
}

// ParseList is the grammar of the CLIs' list flags; the range rules stay
// with the flags.
func TestParseList(t *testing.T) {
	got, err := ParseList(" 4, ,8,0,-2 ", strconv.Atoi)
	if err != nil || len(got) != 4 || got[0] != 4 || got[1] != 8 || got[2] != 0 || got[3] != -2 {
		t.Fatalf("ParseList = %v, %v", got, err)
	}
	for _, bad := range []string{"", " , ", "1,x"} {
		if got, err := ParseList(bad, strconv.Atoi); err == nil {
			t.Errorf("ParseList(%q) = %v, want an error", bad, got)
		}
	}
	if _, err := ParseList("poisson2d,bogus", func(g string) (MatrixSpec, error) { return Generate(g, 4, 1) }); err == nil ||
		err.Error() != `unknown generator "bogus"` {
		t.Errorf("unknown generator: %v", err)
	}
}

func TestGridValidation(t *testing.T) {
	stochastic := func(mut func(*faultsim.Scenario)) faultsim.Scenario {
		sc := faultsim.Scenario{Model: faultsim.ModelExponential, MTBF: 500, Horizon: 60}
		mut(&sc)
		return sc
	}
	if _, err := Run(Grid{}); err == nil {
		t.Error("empty grid accepted")
	}
	if _, err := Run(Grid{Matrices: []MatrixSpec{{Name: "x"}}}); err == nil {
		t.Error("nil matrix accepted")
	}
	// A grid whose strategies admit no T cell is empty.
	g := Grid{
		Matrices:   []MatrixSpec{{Name: "p", A: matgen.Poisson2D(8, 8)}},
		Strategies: []core.Strategy{core.StrategyESRP},
		Ts:         []int{1}, // ESRP needs T > 2
	}
	if _, err := Run(g); err == nil {
		t.Error("empty cross-product accepted")
	}
	// Two systems under one name: cells find their system by name, so both
	// rows would report the last one's solve.
	g = tinyGrid()
	g.Matrices = []MatrixSpec{
		{Name: "m", A: matgen.Poisson2D(12, 12)},
		{Name: "m", A: matgen.EmiliaLike(5, 5, 5, 1)},
	}
	if _, err := Run(g); err == nil || !strings.Contains(err.Error(), "matrices 0 and 1") {
		t.Errorf("duplicate matrix names: error %v, want one naming matrices 0 and 1", err)
	}
	// A strategy value outside core's set never reaches a cell: nothing
	// downstream of the enumeration re-checks it.
	g = tinyGrid()
	g.Strategies = append(g.Strategies, core.Strategy(99))
	if _, err := Run(g); err == nil || !strings.Contains(err.Error(), "Strategy(99)") {
		t.Errorf("unknown strategy: error %v, want one naming Strategy(99)", err)
	}
	// A negative cap, tolerance or worker count is an error, not the
	// default; so is a tolerance that is not finite.
	for _, c := range []struct {
		set  func(*Grid)
		want string
	}{
		{func(g *Grid) { g.MaxIter = -5 }, "iteration cap must be ≥ 0"},
		{func(g *Grid) { g.Rtol = -1 }, "tolerance must be ≥ 0"},
		{func(g *Grid) { g.Rtol = math.NaN() }, "tolerance must be finite"},
		{func(g *Grid) { g.Rtol = math.Inf(1) }, "tolerance must be finite"},
		{func(g *Grid) { g.Workers = -3 }, "workers must be ≥ 0"},
		// Mistakes that would make every cell of a row an error cell.
		{func(g *Grid) { g.Nodes = []int{4, 0} }, "node counts must be ≥ 1, got 0"},
		{func(g *Grid) { g.Phis = []int{1, -1} }, "redundancy φ must be ≥ 0"},
		{func(g *Grid) { g.Scenario = stochastic(func(sc *faultsim.Scenario) { sc.MTBF = -5 }) }, "MTBF must be positive"},
		{func(g *Grid) { g.Scenario = stochastic(func(sc *faultsim.Scenario) { sc.GroupProb = 2 }) }, "group probability"},
		{func(g *Grid) { g.Scenario = stochastic(func(sc *faultsim.Scenario) { sc.GroupSize = -1 }) }, "group size"},
		// A blade as wide as one node count of the grid.
		{func(g *Grid) {
			g.Nodes = []int{8, 4}
			g.Scenario = stochastic(func(sc *faultsim.Scenario) { sc.GroupSize = 4 })
		}, "scenario at 4 nodes: faultsim: group size must be in [0,4)"},
		// A fixed schedule's rank past the smallest cluster of the grid.
		{func(g *Grid) {
			g.Nodes = []int{2, 4}
			g.Scenario = faultsim.Scenario{Model: faultsim.ModelFixed, Schedule: []core.FailureSpec{{Iteration: 5, Ranks: []int{3}}}}
		}, "scenario at 2 nodes: faultsim: event 0 rank 3 out of range [0,2)"},
	} {
		g = tinyGrid()
		c.set(&g)
		if _, err := Run(g); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("error %v, want one saying %q", err, c.want)
		}
	}
	// The zero scenario is failure-free: valid at any node count.
	g = tinyGrid()
	g.Nodes, g.Scenario = []int{1, 4}, faultsim.Scenario{}
	if _, err := Run(g); err != nil {
		t.Errorf("failure-free grid rejected: %v", err)
	}
}

// TestDefaultedPhiSharesContexts pins the prepKey normalization: a grid
// with Phi = 0 cells (core defaults redundant strategies to φ = 1) must not
// collide augmenting (ESRP) and plain-plan (IMCR) cells on one prepared
// context — pre-fix, every IMCR cell errored with a Prepared augmentation
// mismatch.
func TestDefaultedPhiSharesContexts(t *testing.T) {
	g := tinyGrid()
	g.Phis = []int{0}
	rep, err := Run(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Cells {
		if c.Err != "" {
			t.Fatalf("cell %s/T%d/phi%d/seed%d failed: %s", c.Strategy, c.T, c.Phi, c.Seed, c.Err)
		}
		if !c.Converged {
			t.Fatalf("cell %s/T%d/phi%d/seed%d did not converge", c.Strategy, c.T, c.Phi, c.Seed)
		}
	}
}

// TestTraceSampling checks campaign telemetry: sampled cells deliver traces
// keyed by grid index (not worker order), the sampled traces are
// byte-identical across worker counts, the unsampled report JSON is
// untouched by sampling, and the progress callback counts every cell.
func TestTraceSampling(t *testing.T) {
	collect := func(workers int) (map[int][]byte, []byte, int) {
		g := tinyGrid()
		g.Workers = workers
		g.TraceSample = 2 // indices 0, 2, 4
		var mu sync.Mutex
		traces := map[int][]byte{}
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
		var done atomic.Int64
		var sawTotal atomic.Int64
		g.Progress = func(d, total int) {
			done.Add(1)
			if d == total {
				sawTotal.Add(1)
			}
		}
		rep, err := Run(g)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if int(done.Load()) != len(rep.Cells) || sawTotal.Load() != 1 {
			t.Errorf("progress fired %d times (done==total %d), want %d/1",
				done.Load(), sawTotal.Load(), len(rep.Cells))
		}
		return traces, buf.Bytes(), len(rep.Cells)
	}

	seq, seqJSON, cells := collect(1)
	par, parJSON, _ := collect(4)
	if want := (cells + 1) / 2; len(seq) != want {
		t.Fatalf("sampled %d traces, want %d", len(seq), want)
	}
	if len(seq) != len(par) {
		t.Fatalf("worker counts sampled different cells: %d vs %d", len(seq), len(par))
	}
	for idx, a := range seq {
		b, ok := par[idx]
		if !ok {
			t.Errorf("cell %d sampled sequentially but not in parallel", idx)
			continue
		}
		if !bytes.Equal(a, b) {
			t.Errorf("cell %d trace differs across worker counts", idx)
		}
		if err := obs.ValidateChromeTrace(a); err != nil {
			t.Errorf("cell %d trace invalid: %v", idx, err)
		}
	}
	if !bytes.Equal(seqJSON, parJSON) {
		t.Error("report JSON differs across worker counts with sampling on")
	}

	// Sampling must not leak into the report: the same grid without
	// sampling produces the same JSON.
	plain, err := Run(tinyGrid())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plain.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), seqJSON) {
		t.Error("trace sampling changed the campaign report JSON")
	}
}

// TestWriteMetrics checks the Prometheus textfile export: deterministic
// output, well-formed lines, and a build-info gauge.
func TestWriteMetrics(t *testing.T) {
	rep, err := Run(tinyGrid())
	if err != nil {
		t.Fatal(err)
	}
	build := obs.BuildInfo{GoVersion: "go1.24", Revision: "abc123", Modified: true}
	render := func() string {
		var buf bytes.Buffer
		if err := rep.WriteMetrics(&buf, build); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatal("metrics output is not deterministic")
	}
	for _, want := range []string{
		"esrp_campaign_cells_total 6",
		"esrp_campaign_cell_errors_total 0",
		`esrp_campaign_converged_rate{matrix="poisson",nodes="6",strategy="ESR",t="1",phi="1"} 1`,
		`esrp_build_info{go_version="go1.24",vcs_revision="abc123",vcs_modified="true"} 1`,
	} {
		if !strings.Contains(a, want) {
			t.Errorf("metrics output lacks %q:\n%s", want, a)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(a), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed metric line %q", line)
		}
	}
}
