package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// child runs one workload in a fresh process of this same binary, relays
// what it prints, and parses its last line.
func child(o options, workload string, trace int, stdout, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe,
		"-workload", workload, "-trace", strconv.Itoa(trace),
		"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds),
		"-scale", o.scale)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		stdout.Write(buf.Bytes())
		return nil, fmt.Errorf("%s (trace %d): %w", workload, trace, err)
	}
	text := bytes.TrimRight(buf.Bytes(), "\n")
	cut := bytes.LastIndexByte(text, '\n')
	stdout.Write(text[:cut+1])
	var res result
	if err := json.Unmarshal(text[cut+1:], &res); err != nil {
		return nil, fmt.Errorf("%s (trace %d): last line is not a result: %w", workload, trace, err)
	}
	return &res, nil
}

// suiteReport is benchmark/out/report.json.
type suiteReport struct {
	Env       stamp                         `json:"env"`
	Workloads map[string]map[string]*result `json:"workloads"` // workload → "clean" / "traced"
}

// runSuite is the default command: every workload, clean then traced, each
// in its own child process, one at a time. It exits non-zero if any cell of
// any run failed.
func runSuite(o options, root string, stdout, stderr io.Writer) int {
	rep := suiteReport{Env: newStamp(o.seed, o.scale, o.seconds, outDir(root)), Workloads: map[string]map[string]*result{}}
	bad := 0
	for _, w := range workloads {
		rep.Workloads[w.name] = map[string]*result{}
		for trace, mode := range []string{"clean", "traced"} {
			res, err := child(o, w.name, trace, stdout, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			rep.Workloads[w.name][mode] = res
			bad += res.Failed
		}
	}

	fmt.Fprintf(stdout, "\nend-to-end medians (tracing off):\n%-16s", "workload")
	for _, def := range endToEnd {
		fmt.Fprintf(stdout, " %24s", def.Name+" ["+def.Unit+"]")
	}
	fmt.Fprintln(stdout)
	for _, w := range workloads {
		fmt.Fprintf(stdout, "%-16s", w.name)
		for _, def := range endToEnd {
			if !w.judged(def.Name) {
				fmt.Fprintf(stdout, " %24s", "-")
				continue
			}
			fmt.Fprintf(stdout, " %24.6g", rep.Workloads[w.name]["clean"].Metrics[def.Name].Value)
		}
		fmt.Fprintln(stdout)
	}

	data, err := json.MarshalIndent(&rep, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir(root), "report.json"), append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "report: %s\n", filepath.Join(outDir(root), "report.json"))
	if bad > 0 {
		fmt.Fprintf(stderr, "benchmark: %d cells failed (failed_share > 0)\n", bad)
		return 1
	}
	return 0
}

// aaRounds is how many runs of each workload make one side of the A/A
// check. The reference box changes speed in regimes that outlast a run, so
// the two sides alternate and each is judged by the median of its runs.
const aaRounds = 3

// runAA is the A/A acceptance check: the clean suite twice per round, set A
// in workload order and set B in reverse, aaRounds rounds in one invocation,
// and a table of both sets' medians per judged metric and workload. Any pair
// further apart than the metric's bound, or any failed cell, makes it exit
// non-zero.
func runAA(o options, stdout, stderr io.Writer) int {
	var sets [2]map[string][]*result
	for s := range sets {
		sets[s] = map[string][]*result{}
	}
	for round := 0; round < aaRounds; round++ {
		for s := range sets {
			for i := range workloads {
				w := workloads[i]
				if s == 1 {
					w = workloads[len(workloads)-1-i]
				}
				res, err := child(o, w.name, 0, stdout, stderr)
				if err != nil {
					fmt.Fprintln(stderr, "benchmark:", err)
					return 1
				}
				sets[s][w.name] = append(sets[s][w.name], res)
			}
		}
	}
	// side is one set's figure for a metric: the median over its runs.
	side := func(runs []*result, metric string) float64 {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = r.Metrics[metric].Value
		}
		return median(xs)
	}
	bad := 0
	fmt.Fprintf(stdout, "\nA/A: two sets of %d alternating runs of one build, medians\n%-16s %-18s %14s %14s %8s %6s\n", aaRounds, "workload", "metric", "set A", "set B", "B/A", "bound")
	for _, w := range workloads {
		a, b := sets[0][w.name], sets[1][w.name]
		for _, runs := range [][]*result{a, b} {
			for _, r := range runs {
				if r.Failed > 0 {
					bad++
				}
			}
		}
		for _, def := range endToEnd {
			if !w.judged(def.Name) {
				continue
			}
			va, vb := side(a, def.Name), side(b, def.Name)
			r := vb / va
			verdict := ""
			if r > 1+def.Bound || r < 1/(1+def.Bound) {
				verdict = "  DISAGREE"
				bad++
			}
			fmt.Fprintf(stdout, "%-16s %-18s %14.6g %14.6g %8.4f %6.2f%s\n", w.name, def.Name, va, vb, r, def.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "benchmark: A/A check failed: %d metric pairs beyond their bound or runs with failed cells\n", bad)
		return 1
	}
	return 0
}
