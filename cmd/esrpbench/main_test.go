package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"esrp"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 20,50")
	if err != nil || len(got) != 3 || got[0] != 1 || got[2] != 50 {
		t.Fatalf("parseInts = %v, %v", got, err)
	}
	if _, err := parseInts(""); err == nil {
		t.Error("empty list must fail")
	}
	if _, err := parseInts("1,x"); err == nil {
		t.Error("non-integer must fail")
	}
	for _, csv := range []string{"0", "-3", "1,0"} {
		if got, err := parseInts(csv); err == nil {
			t.Errorf("parseInts(%q) = %v, want an error for a non-positive entry", csv, got)
		}
	}
}

func TestGeneratorsAtScaleOne(t *testing.T) {
	g := generator{scale: 1}
	if a := g.emilia(); a.Rows != 24*24*24 {
		t.Fatalf("emilia rows = %d", a.Rows)
	}
	if a := g.audikw(); a.Rows != 28*28*28*3 {
		t.Fatalf("audikw rows = %d", a.Rows)
	}
}

func TestSanitizeName(t *testing.T) {
	if got := sanitizeName("Emilia-like (paper)"); got != "Emilia-like--paper-" {
		t.Fatalf("sanitizeName = %q", got)
	}
}

// The JSON export must carry the reference and per-cell simulated figures,
// no host-side ones, and be valid JSON on disk.
func TestWriteBenchJSON(t *testing.T) {
	dir := t.TempDir()
	a := esrp.Poisson2D(24, 24)
	rep, err := esrp.RunExperiment(esrp.ExperimentSpec{
		Name: "tiny", Matrix: a, Nodes: 6, Ts: []int{1, 10}, Phis: []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := generator{nodes: 6, scale: 1, jsonDir: dir}
	path, err := writeBenchJSON(dir, "tiny", g, a, rep)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_tiny.json" {
		t.Fatalf("unexpected export path %q", path)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out benchJSON
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for k := range keys {
		if strings.HasPrefix(k, "host_") {
			t.Errorf("export carries host-side key %q", k)
		}
	}
	if out.RefSimTime <= 0 || out.RefIterations <= 0 || out.RefMaxNodeBytes <= 0 || out.RefHaloBytes <= 0 {
		t.Fatalf("reference figures missing: %+v", out)
	}
	// 2 ESRP cells (T=1 is ESR) + 1 IMCR cell.
	if len(out.Cells) != 3 {
		t.Fatalf("got %d cells, want 3", len(out.Cells))
	}
	if out.Cells[0].Strategy != "ESR" {
		t.Fatalf("T=1 cell labeled %q, want ESR", out.Cells[0].Strategy)
	}
	for _, c := range out.Cells {
		if c.SimTime <= 0 || c.Iterations <= 0 || c.MaxNodeBytes <= 0 || c.HaloBytes <= 0 {
			t.Fatalf("cell figures missing: %+v", c)
		}
	}
}
