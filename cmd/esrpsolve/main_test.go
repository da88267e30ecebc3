package main

import "testing"

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
