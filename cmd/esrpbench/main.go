// Command esrpbench regenerates the paper's tables and figures on the
// simulated cluster.
//
// Usage:
//
//	esrpbench -table 1          # Table 1: test-matrix inventory
//	esrpbench -table 2          # Table 2: Emilia-like overhead constellation
//	esrpbench -table 3          # Table 3: audikw-like overhead constellation
//	esrpbench -table 4          # Table 4: residual drift (runs both matrices)
//	esrpbench -fig 2            # Fig. 2: Emilia-like overhead-vs-T series
//	esrpbench -fig 3            # Fig. 3: audikw-like overhead-vs-T series
//	esrpbench -all              # everything
//
// Scale knobs (the paper runs 923k–944k rows on 128 nodes; the default here
// is a laptop-scale analog preserving the sparsity-pattern class):
//
//	-nodes N    cluster size (default 32)
//	-scale S    grid refinement factor (default 1; 2 ≈ 8× the rows)
//	-phis CSV   redundancy counts (default 1,3,8)
//	-ts CSV     checkpoint intervals (default 1,20,50,100)
//
// The figures are simulated, so two builds that agree on them agree bit for
// bit (testdata/paper pins them); the host cost of the engine is measured
// under benchmark/.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"esrp"
	"esrp/internal/campaign"
	"esrp/internal/profiling"
)

func main() {
	var (
		table = flag.Int("table", 0, "regenerate Table 1..4 (0 = none)")
		fig   = flag.Int("fig", 0, "regenerate Figure 2..3 (0 = none)")
		all   = flag.Bool("all", false, "regenerate every table and figure")

		nodes = flag.Int("nodes", 32, "simulated cluster size")
		scale = flag.Int("scale", 1, "grid refinement factor for the test matrices")
		phis  = flag.String("phis", "1,3,8", "comma-separated redundancy counts φ")
		ts    = flag.String("ts", "1,20,50,100", "comma-separated checkpoint intervals T")
		rtol  = flag.Float64("rtol", 1e-8, "outer relative tolerance")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if !*all && *table == 0 && *fig == 0 {
		flag.Usage()
		os.Exit(2)
	}
	// Reject bad values before any matrix is generated or solved.
	for _, f := range []struct {
		name string
		v    int
	}{{"nodes", *nodes}, {"scale", *scale}} {
		if f.v < 1 {
			usagef("bad -%s: %d is not a positive integer", f.name, f.v)
		}
	}
	phiList, err := campaign.ParseList(*phis, positive)
	if err != nil {
		usagef("bad -phis: %v", err)
	}
	tList, err := campaign.ParseList(*ts, positive)
	if err != nil {
		usagef("bad -ts: %v", err)
	}

	stop, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatalf("%v", err)
	}
	stopProfile = stop // fatalf finishes the profiles before os.Exit
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintf(os.Stderr, "esrpbench: %v\n", err)
		}
	}()

	g := generator{nodes: *nodes, scale: *scale, phis: phiList, ts: tList, rtol: *rtol}

	want := func(t, f int) bool {
		if *all {
			return true
		}
		return (t != 0 && *table == t) || (f != 0 && *fig == f)
	}

	if want(1, 0) {
		fmt.Print(esrpTable1(g))
		fmt.Println()
	}
	// Tables 2/3 and Figures 2/3 share the same underlying constellation, so
	// run each matrix at most once.
	var emilia, audikw *esrp.ExperimentReport
	if want(2, 2) || *all || *table == 4 {
		emilia = g.run("Emilia-like", g.emilia())
	}
	if want(3, 3) || *all || *table == 4 {
		audikw = g.run("audikw-like", g.audikw())
	}
	if want(2, 0) {
		fmt.Println("== Table 2 ==")
		fmt.Print(esrp.RenderOverheadTable(emilia))
		fmt.Println()
	}
	if want(3, 0) {
		fmt.Println("== Table 3 ==")
		fmt.Print(esrp.RenderOverheadTable(audikw))
		fmt.Println()
	}
	if want(4, 0) {
		fmt.Println("== Table 4 ==")
		fmt.Print(esrp.RenderDriftTable([]*esrp.ExperimentReport{emilia, audikw}))
		fmt.Println()
	}
	if want(0, 2) {
		fmt.Println("== Figure 2 ==")
		fmt.Print(esrp.RenderFigure(emilia, true))
		fmt.Println()
		fmt.Print(esrp.RenderFigureASCII(emilia, true))
		fmt.Println()
		fmt.Print(esrp.RenderFigure(emilia, false))
		fmt.Println()
		fmt.Print(esrp.RenderFigureASCII(emilia, false))
		fmt.Println()
	}
	if want(0, 3) {
		fmt.Println("== Figure 3 ==")
		fmt.Print(esrp.RenderFigure(audikw, true))
		fmt.Println()
		fmt.Print(esrp.RenderFigureASCII(audikw, true))
		fmt.Println()
		fmt.Print(esrp.RenderFigure(audikw, false))
		fmt.Println()
		fmt.Print(esrp.RenderFigureASCII(audikw, false))
		fmt.Println()
	}
}

// generator holds the scale parameters and builds the experiment specs.
type generator struct {
	nodes, scale int
	phis, ts     []int
	rtol         float64
}

// emilia returns the Emilia_923 analog at the configured scale: a banded
// scalar 27-point stencil (structural/geomechanics character).
func (g generator) emilia() *esrp.CSR {
	s := g.scale
	return esrp.EmiliaLike(24*s, 24*s, 24*s, 923)
}

// audikw returns the audikw_1 analog: 27-point stencil with 3 dofs/vertex
// (elasticity character, denser rows, wider band).
func (g generator) audikw() *esrp.CSR {
	// 28³ vertices keep the reference iteration count above 2·T for every
	// default interval, so the T = 100 failure runs land after a completed
	// storage stage, as in the paper.
	s := g.scale
	return esrp.AudikwLike(28*s, 28*s, 28*s, 3, 944)
}

func (g generator) run(name string, a *esrp.CSR) *esrp.ExperimentReport {
	fmt.Fprintf(os.Stderr, "esrpbench: running %s constellation (%d rows, %d nnz, %d nodes)...\n",
		name, a.Rows, a.NNZ(), g.nodes)
	start := time.Now()
	rep, err := esrp.RunExperiment(esrp.ExperimentSpec{
		Name:   name,
		Matrix: a,
		Nodes:  g.nodes,
		Ts:     g.ts,
		Phis:   g.phis,
		Rtol:   g.rtol,
	})
	if err != nil {
		fatalf("%s constellation: %v", name, err)
	}
	fmt.Fprintf(os.Stderr, "esrpbench: %s done in %v (reference: %d iterations, %.4g s simulated)\n",
		name, time.Since(start).Round(time.Millisecond), rep.Ref.Iterations, rep.Ref.SimTime)
	return rep
}

func esrpTable1(g generator) string {
	em, au := g.emilia(), g.audikw()
	return esrp.RenderTable1([]esrp.Table1Row{
		{Name: "Emilia-like (paper: Emilia_923)", ProblemType: "Structural", Size: em.Rows, NNZ: em.NNZ()},
		{Name: "audikw-like (paper: audikw_1)", ProblemType: "Structural", Size: au.Rows, NNZ: au.NNZ()},
	})
}

// positive reads one -phis or -ts entry, a positive integer.
func positive(f string) (int, error) {
	v, err := strconv.Atoi(f)
	if err == nil && v < 1 {
		err = fmt.Errorf("%d is not a positive integer", v)
	}
	return v, err
}

// stopProfile finishes any active -cpuprofile/-memprofile capture; fatalf
// calls it so error exits (os.Exit skips defers) still produce readable
// profiles — the failing runs are the ones worth profiling.
var stopProfile func() error

func fatalf(format string, args ...any) {
	if stopProfile != nil {
		if err := stopProfile(); err != nil {
			fmt.Fprintf(os.Stderr, "esrpbench: %v\n", err)
		}
	}
	fmt.Fprintf(os.Stderr, "esrpbench: "+format+"\n", args...)
	os.Exit(1)
}

// usagef reports a bad flag value and exits 2, as the flag package does for
// a flag it cannot parse.
func usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "esrpbench: "+format+"\n", args...)
	os.Exit(2)
}
