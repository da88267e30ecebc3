// Command benchmark is the repository's one benchmark: six workloads, the
// end-to-end metrics a user of the simulator waits for, and an outside-in
// layer ledger. See README.md in this directory and BENCHMARK.json at the
// repository root.
//
//	go run ./benchmark                 # every workload: clean run, then traced run
//	go run ./benchmark -aa             # two alternating sets of clean runs; fails if they disagree
//	go run ./benchmark -workload solve-fat -seed 7 -seconds 10 -trace 0
//
// With -workload the process runs that one workload and prints, as its last
// line, one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics with -trace 0, the per-layer metrics with -trace 1.
// Without it the process is the driver: it spawns itself once per workload
// and mode, one child at a time, so every workload starts from a fresh heap
// and reports its own peak RSS.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// defaultSeconds is how long one run measures; BENCHMARK.json's run_seconds
// repeats it.
const defaultSeconds = 10

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	scale    string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run this one workload in this process (default: the whole suite, one child process per workload)")
	fs.Int64Var(&o.seed, "seed", goldenSeed, "seed of the generated inputs: matrix coefficients, right-hand sides, where the recovery-storm failures strike")
	fs.IntVar(&o.seconds, "seconds", defaultSeconds, "how long a run repeats timed passes (at least the scale's minimum pass count)")
	fs.IntVar(&o.trace, "trace", 0, "0: clean run, end-to-end metrics; 1: traced run, per-layer metrics and a Chrome trace")
	fs.StringVar(&o.scale, "scale", "full", "problem sizes: full, or tiny (the smoke test's toy scale)")
	aa := fs.Bool("aa", false, "A/A check: run the clean suite in two alternating sets and exit non-zero if any judged end-to-end metric differs beyond its bound")
	update := fs.Bool("update-golden", false, "rewrite benchmark/golden.json from this build and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if o.scale != "full" && o.scale != "tiny" {
		return fail(fmt.Errorf("unknown scale %q", o.scale))
	}
	if o.trace != 0 && o.trace != 1 {
		return fail(fmt.Errorf("-trace must be 0 or 1"))
	}
	setProcs(stderr)
	root, err := repoRoot()
	if err != nil {
		return fail(err)
	}
	tmp := filepath.Join(outDir(root), "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return fail(err)
	}

	switch {
	case *update:
		if err := updateGolden(root, tmp); err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, "wrote", goldenPath(root))
		return 0
	case o.workload != "":
		if _, err := runWorkload(o, root, tmp, stdout); err != nil {
			return fail(err)
		}
		return 0
	case *aa:
		return runAA(o, stdout, stderr)
	default:
		return runSuite(o, root, stdout, stderr)
	}
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// floors are the minimum counts of a run: set-up repeats so that setup_s is
// a median too, and timed passes repeat until -seconds have gone by but
// never fewer than this.
func floors(sc string) (setups, passes int) {
	if sc == "tiny" {
		return 1, 1
	}
	return 3, 3
}

// runWorkload is one run of one workload: set-up including the discarded
// pass 0 (repeated), timed passes with every cell checked, and — traced — a
// few passes with the program's instrumentation on plus the layer
// re-enactment.
func runWorkload(o options, root, tmp string, stdout io.Writer) (*result, error) {
	w := findWorkload(o.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	var golden *goldenFile
	if o.seed == goldenSeed {
		var err error
		if golden, err = loadGolden(root); err != nil {
			return nil, err
		}
	}
	var tr *tracer
	if o.trace == 1 {
		tr = newTracer(w.name)
	}
	st := newStamp(o.seed, o.scale, o.seconds, tmp)

	res := &result{Metrics: map[string]metricValue{}}
	firstBad := ""
	var in instance
	// pass runs one pass of the current set-up and checks every cell of it.
	pass := func(tr *tracer, name string) (*passOut, error) {
		id := tr.begin(name)
		out, err := in.pass(tr)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		if golden != nil {
			golden.check(o.scale, w.golden, out)
		}
		if firstBad == "" {
			firstBad = out.firstBad
		}
		res.Attempted += out.units
		res.Failed += min(out.failed, out.units)
		return out, nil
	}

	// Set-up is everything before the first timed pass: building the
	// inputs, preparing the program, and pass 0, which warms lazy set-up,
	// pools and the page cache and is not timed as a pass. It runs several
	// times over so that setup_s is a median; the last one serves the
	// timed passes.
	var setupTimes []float64
	var minPasses int
	st.Setups, minPasses = floors(o.scale)
	if tr != nil {
		st.Setups = 1 // setup_s belongs to the clean run; the spans want one set-up
	}
	for k := 0; k < st.Setups; k++ {
		if in != nil {
			in.close()
		}
		in = w.new(o.scale, o.seed, tmp)
		runtime.GC() // the previous set-up's garbage is not this one's cost
		t0 := time.Now()
		id := tr.begin("setup")
		err := in.setup(tr)
		if err == nil {
			_, err = pass(nil, "pass 0")
		}
		tr.end(id)
		if err != nil {
			in.close()
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer in.close()

	budget := time.Duration(o.seconds) * time.Second
	if tr != nil {
		budget /= 3 // the traced run spends the rest on traced passes and the re-enactment
	}
	var outs []*passOut
	for start := time.Now(); len(outs) < minPasses || time.Since(start) < budget; {
		out, err := pass(nil, "pass")
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
	}
	st.Passes = len(outs)

	series := func(f func(*passOut) float64) []float64 {
		xs := make([]float64, len(outs))
		for i, out := range outs {
			xs[i] = f(out)
		}
		return xs
	}

	fmt.Fprintln(stdout, "env:", st)
	fmt.Fprintf(stdout, "workload %s: %d set-ups (each with its pass 0), %d timed passes, %d cells and %d simulated steps per pass\n",
		w.name, st.Setups, len(outs), outs[0].units, outs[0].steps)

	if tr == nil {
		values := map[string][]float64{
			"wall_s":           series(func(o *passOut) float64 { return o.wall.Seconds() }),
			"host_ns_per_iter": series(func(o *passOut) float64 { return float64(o.wall.Nanoseconds()) / float64(o.steps) }),
			"cells_per_s":      series(func(o *passOut) float64 { return float64(o.units) / o.wall.Seconds() }),
			"allocs_per_pass":  series(func(o *passOut) float64 { return float64(o.mallocs) }),
			"setup_s":          setupTimes,
		}
		for _, def := range endToEnd {
			s := summarize(values[def.Name])
			res.Metrics[def.Name] = metricValue{s.Median, def.Unit}
			note := ""
			if !w.judged(def.Name) {
				note = "  [wall_s rescaled: printed for the driver, not judged on this workload]"
			}
			fmt.Fprintf(stdout, "  %-18s %14.6g %-6s (min %.6g, q1 %.6g, q3 %.6g, n=%d)%s\n", def.Name, s.Median, def.Unit, s.Min, s.Q1, s.Q3, s.N, note)
		}
	} else {
		m, err := tracedRun(tr, in, pass, outs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		m["sim_time_s"] = outs[0].simTime()
		m["failed_share"] = ratio(float64(res.Failed), float64(res.Attempted))
		for _, def := range perLayer {
			res.Metrics[def.Name] = metricValue{m[def.Name], def.Unit}
			fmt.Fprintf(stdout, "  %-34s %14.6g %s\n", def.Name, m[def.Name], def.Unit)
		}
		path := filepath.Join(outDir(root), "trace-"+w.name+".json")
		if err := writeTrace(path, tr, st); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "  trace: %s (%d spans)\n", path, len(tr.spans))
	}
	fmt.Fprintf(stdout, "  sim_time_s %.17g, failed %d of %d cells\n", outs[0].simTime(), res.Failed, res.Attempted)
	if firstBad != "" {
		fmt.Fprintf(stdout, "  FIRST BAD CELL: %s\n", firstBad)
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return res, nil
}

// tracedRun makes the traced passes and the re-enactment and returns the
// per-layer metrics. outs are the clean passes it is compared with.
func tracedRun(tr *tracer, in instance, pass func(*tracer, string) (*passOut, error), outs []*passOut) (layerMetrics, error) {
	var walls []float64
	for _, out := range outs {
		walls = append(walls, out.wall.Seconds())
	}
	var traced *passOut
	var tracedWalls []float64
	for k := 0; k < min(3, len(outs)); k++ {
		out, err := pass(tr, "traced pass")
		if err != nil {
			return nil, err
		}
		traced = out
		tracedWalls = append(tracedWalls, out.wall.Seconds())
	}
	m := traced.layer

	// The pass the re-enactment accounts for: the median clean pass.
	clean := &passOut{wall: time.Duration(median(walls) * float64(time.Second)), cells: outs[0].cells, units: outs[0].units, steps: outs[0].steps}
	for c := range outs[0].cellWall {
		var ds []time.Duration
		for _, out := range outs {
			ds = append(ds, out.cellWall[c])
		}
		clean.cellWall = append(clean.cellWall, medianDur(ds))
	}
	if err := in.layers(tr, clean, m); err != nil {
		return nil, fmt.Errorf("re-enactment: %w", err)
	}

	// Spans around the driver's own set-up calls.
	m.addDur("matgen.generate_s", tr.total("matgen.generate"))
	m.addDur("core.prepare_s", tr.total("core.Prepare"))
	m.addDur("ccache.open_s", tr.total("ccache.Open"))

	var allocBytes, gcPause float64
	for _, out := range outs {
		allocBytes += float64(out.allocBytes)
		gcPause += out.gcPause.Seconds()
	}
	m["process.alloc_mb_per_pass"] = allocBytes / 1e6 / float64(len(outs))
	m["process.gc_pause_ms"] = gcPause * 1e3 / float64(len(outs))
	m["process.peak_rss_mb"] = peakRSSMB()
	m["process.trace_overhead_share"] = ratio(median(tracedWalls), median(walls)) - 1
	return m, nil
}

func writeTrace(path string, tr *tracer, st stamp) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.hostTrace(st).WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
