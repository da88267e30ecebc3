package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestLoadMatrixGenerators(t *testing.T) {
	for _, gen := range []string{"poisson2d", "poisson3d", "emilia", "audikw", "banded"} {
		a, name, err := loadMatrix("", gen, 4, 1)
		if err != nil || a == nil || name == "" {
			t.Errorf("loadMatrix(%q): %v", gen, err)
		}
	}
	if _, _, err := loadMatrix("", "bogus", 4, 1); err == nil {
		t.Error("unknown generator must fail")
	}
	if _, _, err := loadMatrix("/nonexistent.mtx", "", 0, 0); err == nil {
		t.Error("missing file must fail")
	}
}

// buildCommand compiles this command into a temporary directory.
func buildCommand(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool to build the command with")
	}
	bin := filepath.Join(t.TempDir(), "esrpsolve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// A negative -maxblock is an error: the command exits non-zero and says so,
// rather than solving with the default block size.
func TestNegativeMaxBlockExitsNonZero(t *testing.T) {
	bin := buildCommand(t)
	out, err := exec.Command(bin, "-gen", "poisson2d", "-n", "8", "-nodes", "2", "-maxblock", "-3").CombinedOutput()
	if _, exited := err.(*exec.ExitError); !exited {
		t.Fatalf("esrpsolve -maxblock -3: err %v, want a non-zero exit\n%s", err, out)
	}
	if !strings.Contains(string(out), "block size must be ≥ 0") {
		t.Fatalf("esrpsolve -maxblock -3 printed\n%s\nwant the block size error", out)
	}
}

// Negative -phi, -rtol and -rr are errors too, where they used to solve
// with φ = 1, at 1e-8 and without residual replacement. So is -rtol NaN,
// which used to run to the iteration cap with a NaN residual.
func TestNegativeValuesExitNonZero(t *testing.T) {
	bin := buildCommand(t)
	for _, c := range []struct{ flag, value, want string }{
		{"-phi", "-2", "phi must be ≥ 0"},
		{"-rtol", "-1", "tolerance must be ≥ 0"},
		{"-rtol", "NaN", "tolerance must be finite"},
		{"-rr", "-3", "residual replacement interval must be ≥ 0"},
	} {
		out, err := exec.Command(bin, "-gen", "poisson2d", "-n", "8", "-nodes", "2", "-strategy", "esrp", "-T", "5", c.flag, c.value).CombinedOutput()
		if _, exited := err.(*exec.ExitError); !exited {
			t.Errorf("esrpsolve %s %s: err %v, want a non-zero exit\n%s", c.flag, c.value, err, out)
			continue
		}
		if !strings.Contains(string(out), c.want) {
			t.Errorf("esrpsolve %s %s printed\n%s\nwant %q", c.flag, c.value, out, c.want)
		}
	}
}

// Deleted flags are refused by the flag package (exit 2) rather than
// ignored: -events is the one spelling of a failure, the planner picks the
// SpMV layout, and there is one PCG recurrence.
func TestDeletedFlagsExitTwo(t *testing.T) {
	bin := buildCommand(t)
	for _, args := range [][]string{
		{"-fail-iter", "5"}, {"-fail-ranks", "3"}, {"-kernel", "band"}, {"-pipelined"},
	} {
		out, err := exec.Command(bin, append([]string{"-gen", "poisson2d", "-n", "8", "-nodes", "2"}, args...)...).CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("esrpsolve %v: err %v, want exit status 2\n%s", args, err, out)
			continue
		}
		if !strings.Contains(string(out), "flag provided but not defined: "+args[0]) {
			t.Errorf("esrpsolve %v printed\n%s\nwant the undefined-flag error", args, out)
		}
	}
}
