package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"esrp"
)

func TestParseSchedule(t *testing.T) {
	ev, err := parseSchedule("20:2-3;50:5")
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 2 {
		t.Fatalf("got %d events", len(ev))
	}
	if ev[0].Iteration != 20 || len(ev[0].Ranks) != 2 || ev[0].Ranks[0] != 2 || ev[0].Ranks[1] != 3 {
		t.Fatalf("event 0 = %+v", ev[0])
	}
	if ev[1].Iteration != 50 || len(ev[1].Ranks) != 1 || ev[1].Ranks[0] != 5 {
		t.Fatalf("event 1 = %+v", ev[1])
	}
	for _, bad := range []string{"", "20", "x:1", "20:a", "20:5-3"} {
		if _, err := parseSchedule(bad); err == nil {
			t.Errorf("schedule %q accepted", bad)
		}
	}
}

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
	if _, err := buildGrid(gridFlags{gens: "poisson2d", n: 8, nodes: "4", strategies: "esr", ts: "10", phis: "1", seeds: 0, model: "exp", mtbf: 1}); err == nil {
		t.Error("zero seeds accepted")
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
