package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"esrp"
)

func TestBuildGrid(t *testing.T) {
	g, err := buildGrid(gridFlags{
		gens: "poisson2d", n: 16, seed: 1,
		nodes: "4,8", strategies: "esr,imcr", ts: "10", phis: "1", seeds: 2,
		model: "exp", mtbf: 1000, shape: 1, horizon: 50,
		group: 1, rtol: 1e-8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Matrices) != 1 || len(g.Nodes) != 2 || len(g.Strategies) != 2 || len(g.Seeds) != 2 {
		t.Fatalf("grid axes wrong: %+v", g)
	}
	if g.Scenario.Model != esrp.ScenarioExponential || g.Scenario.Horizon != 50 {
		t.Fatalf("scenario = %+v", g.Scenario)
	}

	if _, err := buildGrid(gridFlags{gens: "nope", n: 8, nodes: "4", strategies: "esr", ts: "10", phis: "1", seeds: 1, model: "exp", mtbf: 1}); err == nil {
		t.Error("unknown generator accepted")
	}
	if _, err := buildGrid(gridFlags{gens: "poisson2d", n: 8, nodes: "4", strategies: "esr", ts: "10", phis: "1", seeds: 1, model: "fixed", events: ""}); err == nil {
		t.Error("fixed model without events accepted")
	}
	// The largest cluster bounds the ranks, before a range is expanded.
	for _, events := range []string{"1:0-2000000000", "1:0-9223372036854775807", "1:8"} {
		if _, err := buildGrid(gridFlags{gens: "poisson2d", n: 8, nodes: "4,8", strategies: "esr", ts: "10", phis: "1", seeds: 1, model: "fixed", events: events}); err == nil {
			t.Errorf("-events %q accepted on at most 8 nodes", events)
		}
	}
	if _, err := buildGrid(gridFlags{gens: "poisson2d", n: 8, nodes: "4,8", strategies: "esr", ts: "10", phis: "1", seeds: 1, model: "fixed", events: "1:7"}); err != nil {
		t.Errorf("-events on the largest cluster's top rank: %v", err)
	}
	if _, err := buildGrid(gridFlags{gens: "poisson2d", n: 8, nodes: "4", strategies: "esr", ts: "10", phis: "1", seeds: 0, model: "exp", mtbf: 1}); err == nil {
		t.Error("zero seeds accepted")
	}
}

// Each -gen value at n = 4: the matrix name the report carries, and the
// system's rows and nonzeros.
func TestGeneratorNames(t *testing.T) {
	want := []struct {
		name      string
		rows, nnz int
	}{
		{"poisson2d-4x4", 16, 64},
		{"poisson3d-4", 64, 352},
		{"emilia-like-4", 64, 1000},
		{"audikw-like-4x3", 192, 9000},
		{"banded-16", 16, 132},
	}
	g, err := buildGrid(gridFlags{
		gens: "poisson2d,poisson3d,emilia,audikw,banded", n: 4, seed: 1,
		nodes: "2", strategies: "none", ts: "10", phis: "1", seeds: 1,
		model: "exp", mtbf: 1e9, shape: 1, horizon: 10, group: 1, rtol: 1e-8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Matrices) != len(want) {
		t.Fatalf("got %d matrices, want %d", len(g.Matrices), len(want))
	}
	for i, m := range g.Matrices {
		if w := want[i]; m.Name != w.name || m.A.Rows != w.rows || m.A.NNZ() != w.nnz {
			t.Errorf("matrix %d = %q, %d rows, %d nnz; want %q, %d, %d",
				i, m.Name, m.A.Rows, m.A.NNZ(), w.name, w.rows, w.nnz)
		}
	}
	rep, err := esrp.RunCampaign(*g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != len(want) {
		t.Fatalf("got %d cells, want %d", len(rep.Cells), len(want))
	}
	for i, c := range rep.Cells {
		if c.Matrix != want[i].name {
			t.Errorf("cell %d matrix = %q, want %q", i, c.Matrix, want[i].name)
		}
	}
}

// End-to-end: a tiny grid through the library surface the CLI drives.
func TestTinyGridEndToEnd(t *testing.T) {
	g, err := buildGrid(gridFlags{
		gens: "poisson2d", n: 24, seed: 1,
		nodes: "6", strategies: "esr", ts: "10", phis: "1", seeds: 2,
		model: "exp", mtbf: 600, shape: 1, horizon: 40,
		group: 1, rtol: 1e-8,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := esrp.RunCampaign(*g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Err != "" || !c.Converged {
			t.Errorf("cell seed %d: err=%q converged=%v", c.Seed, c.Err, c.Converged)
		}
	}
}

// buildCommand compiles this command into a temporary directory.
func buildCommand(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool to build the command with")
	}
	bin := filepath.Join(t.TempDir(), "esrpcampaign")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// A negative -maxiter is an error: the command exits non-zero and says so,
// rather than running every cell with the default cap.
func TestNegativeMaxIterExitsNonZero(t *testing.T) {
	bin := buildCommand(t)
	out, err := exec.Command(bin, "-gen", "poisson2d", "-n", "8", "-nodes", "2", "-maxiter", "-5").CombinedOutput()
	if _, exited := err.(*exec.ExitError); !exited {
		t.Fatalf("esrpcampaign -maxiter -5: err %v, want a non-zero exit\n%s", err, out)
	}
	if !strings.Contains(string(out), "iteration cap must be ≥ 0") {
		t.Fatalf("esrpcampaign -maxiter -5 printed\n%s\nwant the iteration cap error", out)
	}
}

// Negative -workers, -rtol and -horizon are errors too, where they used to
// run on GOMAXPROCS workers, at 1e-8 and up to iteration 200. So are grid
// values that used to make every cell an error cell and exit 0, and -rtol
// NaN, which used to run every cell to its iteration cap.
func TestNegativeValuesExitNonZero(t *testing.T) {
	bin := buildCommand(t)
	for _, c := range []struct{ flag, value, want string }{
		{"-workers", "-3", "workers must be ≥ 0"},
		{"-rtol", "-1", "tolerance must be ≥ 0"},
		{"-rtol", "NaN", "tolerance must be finite"},
		{"-horizon", "-5", "bad -horizon"},
		{"-nodes", "0", "node counts must be ≥ 1"},
		{"-phis", "-1", "redundancy φ must be ≥ 0"},
		{"-mtbf", "-5", "MTBF must be positive"},
		{"-group-prob", "2", "group probability must be in [0,1]"},
		{"-group", "-1", "group size must be in"},
	} {
		out, err := exec.Command(bin, "-gen", "poisson2d", "-n", "8", "-nodes", "2", "-json", "/dev/null", "-q", c.flag, c.value).CombinedOutput()
		if _, exited := err.(*exec.ExitError); !exited {
			t.Errorf("esrpcampaign %s %s: err %v, want a non-zero exit\n%s", c.flag, c.value, err, out)
			continue
		}
		if !strings.Contains(string(out), c.want) {
			t.Errorf("esrpcampaign %s %s printed\n%s\nwant %q", c.flag, c.value, out, c.want)
		}
	}
}

// A fixed schedule over several -nodes entries is checked against each: a
// rank past a smaller cluster exits 1 and names that row, where it used to
// exit 0 with that row's cells reported as error cells.
func TestFixedScheduleRankPastSmallerClusterExitsOne(t *testing.T) {
	bin := buildCommand(t)
	out, err := exec.Command(bin, "-gen", "poisson2d", "-n", "8", "-nodes", "2,4", "-model", "fixed", "-events", "5:3", "-json", "-", "-q").CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("err %v, want exit status 1\n%s", err, out)
	}
	if want := "campaign: scenario at 2 nodes: faultsim: event 0 rank 3 out of range [0,2)"; !strings.Contains(string(out), want) {
		t.Fatalf("printed\n%s\nwant %q", out, want)
	}
}
