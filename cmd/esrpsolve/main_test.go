package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseRanks(t *testing.T) {
	got, err := parseRanks("3, 4,5")
	if err != nil || len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Fatalf("parseRanks = %v, %v", got, err)
	}
	if _, err := parseRanks("a"); err == nil {
		t.Error("non-integer rank must fail")
	}
}

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

// A negative -maxblock is an error: the command exits non-zero and says so,
// rather than solving with the default block size.
func TestNegativeMaxBlockExitsNonZero(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool to build the command with")
	}
	bin := filepath.Join(t.TempDir(), "esrpsolve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-gen", "poisson2d", "-n", "8", "-nodes", "2", "-maxblock", "-3").CombinedOutput()
	if _, exited := err.(*exec.ExitError); !exited {
		t.Fatalf("esrpsolve -maxblock -3: err %v, want a non-zero exit\n%s", err, out)
	}
	if !strings.Contains(string(out), "block size must be ≥ 0") {
		t.Fatalf("esrpsolve -maxblock -3 printed\n%s\nwant the block size error", out)
	}
}
