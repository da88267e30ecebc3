package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"esrp/internal/obs"
)

// benchmarkJSON is the part of BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", doc.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json    %+v\n program %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json    %+v\n program %+v", doc.PerLayer, perLayer)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	// A rationale that names a rank count names the one the workload runs.
	for kind, name := range map[solveKind]string{solveFat: "solve-fat", solveWide: "solve-wide", recoveryStorm: "recovery-storm"} {
		want := fmt.Sprintf("on %d ranks", solveSpecFor(kind, "full").nodes)
		if why := findWorkload(name).why; !strings.Contains(why, want) {
			t.Errorf("%s runs %s, its why says %q", name, want, why)
		}
	}
}

// runTiny runs one workload at toy scale through the same code path as a
// driver run and returns its parsed last line.
func runTiny(t *testing.T, workload, trace string) *result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", workload, "-scale", "tiny", "-seconds", "0", "-trace", trace}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not a result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, stdout.String())
	}
	return &res
}

func checkNames(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics printed, %d declared", len(res.Metrics), len(defs))
	}
	for _, def := range defs {
		m, ok := res.Metrics[def.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not printed", def.Name)
		case m.Unit != def.Unit:
			t.Errorf("metric %s printed in %q, declared in %q", def.Name, m.Unit, def.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", def.Name, m.Value)
		}
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			clean := runTiny(t, w.name, "0")
			checkNames(t, clean, endToEnd)
			for _, def := range endToEnd {
				if clean.Metrics[def.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", def.Name, clean.Metrics[def.Name].Value)
				}
			}

			traced := runTiny(t, w.name, "1")
			checkNames(t, traced, perLayer)
			data, err := os.ReadFile(filepath.Join("out", "trace-"+w.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := obs.ValidateChromeTrace(data); err != nil {
				t.Error(err)
			}

			// The ledger closes: the re-enacted layer spans plus the
			// remainder the run reports make up the wall they account for.
			wall, share := traced.Metrics["core.solve_s"].Value, traced.Metrics["core.unattributed_share"].Value
			remainder := "core.unattributed"
			if strings.HasPrefix(w.name, "sweep-") {
				wall, share = traced.Metrics["campaign.run_s"].Value, traced.Metrics["campaign.other_share"].Value
				remainder = "campaign.other"
			}
			var doc struct {
				TraceEvents []struct {
					Name string  `json:"name"`
					Ph   string  `json:"ph"`
					Dur  float64 `json:"dur"` // µs
					Tid  int     `json:"tid"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatal(err)
			}
			layers := 0.0
			for _, ev := range doc.TraceEvents {
				if ev.Ph == "X" && ev.Tid == reenactLane && ev.Name != remainder {
					layers += ev.Dur / 1e6
				}
			}
			if want := wall * (1 - share); wall <= 0 || math.Abs(layers-want) > 0.01*wall {
				t.Errorf("re-enacted layers sum to %.6g s, wall %.6g s × (1 − remainder share %.4f) = %.6g s", layers, wall, share, want)
			}
		})
	}
}

func TestGoldenMismatchCountsAsFailed(t *testing.T) {
	out := &passOut{cells: []cellStat{{Cell: "a", Iterations: 3, SimTime: 1.5}, {Cell: "b", Iterations: 4}}, units: 2}
	g := &goldenFile{Scales: map[string]map[string][]cellStat{"tiny": {"k": {{Cell: "a", Iterations: 3, SimTime: math.Nextafter(1.5, 2)}, {Cell: "b", Iterations: 4}}}}}
	g.check("tiny", "k", out)
	if out.failed != 1 || !strings.Contains(out.firstBad, "sim_time_s") {
		t.Errorf("failed=%d firstBad=%q, want one failed cell naming sim_time_s", out.failed, out.firstBad)
	}
}
