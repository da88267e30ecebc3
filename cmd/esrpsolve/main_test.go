package main

import (
	"encoding/csv"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Each -gen value at n = 4: the name the first output line prints, and the
// system's rows and nonzeros.
func TestLoadMatrixGenerators(t *testing.T) {
	for _, c := range []struct {
		gen, name string
		rows, nnz int
	}{
		{"poisson2d", "poisson2d-4x4", 16, 64},
		{"poisson3d", "poisson3d-4", 64, 352},
		{"emilia", "emilia-like-4", 64, 1000},
		{"audikw", "audikw-like-4x3", 192, 9000},
		{"banded", "banded-16", 16, 132},
	} {
		a, name, err := loadMatrix("", c.gen, 4, 1)
		if err != nil {
			t.Errorf("loadMatrix(%q): %v", c.gen, err)
			continue
		}
		if name != c.name || a.Rows != c.rows || a.NNZ() != c.nnz {
			t.Errorf("loadMatrix(%q) = %q, %d rows, %d nnz; want %q, %d, %d",
				c.gen, name, a.Rows, a.NNZ(), c.name, c.rows, c.nnz)
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
// which used to run to the iteration cap with a NaN residual, and an
// -events range past -nodes, which used to be expanded rank by rank.
func TestNegativeValuesExitNonZero(t *testing.T) {
	bin := buildCommand(t)
	for _, c := range []struct{ flag, value, want string }{
		{"-phi", "-2", "phi must be ≥ 0"},
		{"-rtol", "-1", "tolerance must be ≥ 0"},
		{"-rtol", "NaN", "tolerance must be finite"},
		{"-rr", "-3", "residual replacement interval must be ≥ 0"},
		{"-events", "1:0-2000000000", "rank 2000000000 ≥ 2 nodes"},
		{"-events", "1:0-9223372036854775807", "≥ 2 nodes"},
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

// wall is the one field of the -v report that is host time, not simulated.
var wall = regexp.MustCompile(`, wall [^ \n]*`)

// -v prints the residual history from the series, which follows the
// communicator's rank 0: when the shrink retires global rank 0 at iteration
// 50, the history still holds all 102 iterations, iteration 50 at index 50.
// The verify recipes, which retire no rank 0, print what the build before
// the series took the history over printed (testdata/verbose-*.txt).
func TestVerboseResidualHistory(t *testing.T) {
	bin := buildCommand(t)
	series := filepath.Join(t.TempDir(), "series.csv")
	out, err := exec.Command(bin, "-gen", "poisson2d", "-n", "48", "-nodes", "8", "-strategy", "esr",
		"-phi", "1", "-no-spare", "-events", "50:0", "-v", "-series", series).CombinedOutput()
	if err != nil {
		t.Fatalf("esrpsolve: %v\n%s", err, out)
	}
	for _, want := range []string{"converged: 102 iterations", "recorded 102 residuals\n  resid[0] = 4.099279e+00\n"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("esrpsolve -v printed\n%s\nwant %q", out, want)
		}
	}
	f, err := os.Open(series)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// Header, then one row per residual: row 1+50 is resid[50].
	if len(rows) != 1+102 || rows[1+50][1] != "50" || rows[1+50][2] != "0.0006491736410525923" {
		t.Errorf("series has %d rows, resid[50] row %v; want 1+102 rows, iteration 50 at relres 6.491736e-04",
			len(rows), rows[min(1+50, len(rows)-1)])
	}

	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"verbose-esrp-shrink.txt", []string{"-gen", "poisson2d", "-n", "64", "-nodes", "12", "-balance",
			"-strategy", "esrp", "-T", "15", "-phi", "2", "-events", "50:5-6", "-no-spare", "-v"}},
		{"verbose-imcr.txt", []string{"-gen", "poisson2d", "-n", "64", "-nodes", "8",
			"-strategy", "imcr", "-T", "10", "-events", "35:4", "-v"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(bin, c.args...).Output()
		if err != nil {
			t.Fatalf("esrpsolve %v: %v", c.args, err)
		}
		if got := wall.ReplaceAllString(string(out), ""); got != string(want) {
			t.Errorf("esrpsolve %v printed\n%s\nwant testdata/%s:\n%s", c.args, got, c.golden, want)
		}
	}
}
