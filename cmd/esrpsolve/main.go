// Command esrpsolve runs one resilient PCG solve on the simulated cluster
// and reports convergence, modeled runtime and recovery statistics.
//
// The system is either read from a Matrix Market file (-matrix file.mtx) or
// generated (-gen poisson2d|poisson3d|emilia|audikw|banded with -n scale).
//
// Failures are injected with -events "iter:ranks;...": the paper's single
// event of contiguous ranks is one entry (ranks 3 and 4 at iteration 100),
// a whole timeline several, against a finite spare pool if -spares is set.
//
// Examples:
//
//	esrpsolve -gen emilia -n 16 -nodes 16 -strategy esrp -T 20 -phi 2 \
//	          -events "100:3-4"
//	esrpsolve -matrix system.mtx -nodes 8 -strategy imcr -T 50 -phi 1
//	esrpsolve -gen poisson2d -n 48 -nodes 8 -strategy esr -phi 1 \
//	          -events "20:3;45:5;70:2" -spares 1
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"esrp"
	"esrp/internal/campaign"
	"esrp/internal/faultsim"
	"esrp/internal/obs"
	"esrp/internal/sparse"
)

func main() {
	var (
		matrixFile = flag.String("matrix", "", "Matrix Market file with the SPD system")
		gen        = flag.String("gen", "poisson2d", "generator: poisson2d|poisson3d|emilia|audikw|banded")
		n          = flag.Int("n", 32, "generator grid scale (rows ≈ n² or n³ depending on generator)")
		seed       = flag.Int64("seed", 1, "generator seed")

		nodes    = flag.Int("nodes", 8, "simulated cluster size")
		strategy = flag.String("strategy", "esrp", "resilience strategy: none|esr|esrp|imcr")
		tInt     = flag.Int("T", 20, "checkpointing interval")
		phi      = flag.Int("phi", 1, "redundancy copies / tolerated simultaneous failures")
		rtol     = flag.Float64("rtol", 1e-8, "relative residual tolerance")
		precond  = flag.String("precond", "blockjacobi", "preconditioner: none|jacobi|blockjacobi|ic0")
		maxBlock = flag.Int("maxblock", 10, "block Jacobi maximum block size")

		events  = flag.String("events", "", "failure timeline iter:r0-r1;iter:r0;... of contiguous ranks (e.g. 20:2-3;50:5)")
		spares  = flag.Int("spares", 0, "replacement-node pool (0 = unlimited); exhausted pool falls back to the no-spare shrink (ESR/ESRP)")
		noSpare = flag.Bool("no-spare", false, "recover onto surviving nodes instead of replacements (ESR/ESRP)")

		balance = flag.Bool("balance", false, "balance the row distribution by per-row work instead of row counts")
		rr      = flag.Int("rr", 0, "residual replacement interval (0 = off)")

		tracePath  = flag.String("trace", "", "write the per-rank span timeline as Chrome trace_event JSON to this file (open in https://ui.perfetto.dev)")
		seriesPath = flag.String("series", "", "write the per-iteration metric series to this file (.json, anything else = CSV)")
		verbose    = flag.Bool("v", false, "print residual history, per-event recovery breakdown, and traffic counters")
	)
	flag.Parse()

	a, name, err := loadMatrix(*matrixFile, *gen, *n, *seed)
	if err != nil {
		fatalf("%v", err)
	}
	strat, err := esrp.ParseStrategy(*strategy)
	if err != nil {
		fatalf("%v", err)
	}
	pk, err := esrp.ParsePrecond(*precond)
	if err != nil {
		fatalf("%v", err)
	}

	cfg := esrp.Config{
		A: a, B: esrp.RHSOnes(a.Rows), Nodes: *nodes,
		Strategy: strat, T: *tInt, Phi: *phi,
		Rtol: *rtol, PrecondKind: pk, MaxBlock: *maxBlock,
		NoSpareNodes:                *noSpare,
		BalanceNNZ:                  *balance,
		ResidualReplacementInterval: *rr,
	}
	cfg.Spares = *spares
	// -v prints the residual history from the series and derives its
	// recovery breakdown from the trace envelopes, so it turns both on; the
	// recorder never alters the trajectory.
	if *tracePath != "" || *seriesPath != "" || *verbose {
		cfg.Observe = &esrp.ObserveOptions{
			Trace:  *tracePath != "" || *verbose,
			Series: *seriesPath != "" || *verbose,
		}
	}
	if *events != "" {
		timeline, err := faultsim.ParseSchedule(*events, *nodes)
		if err != nil {
			fatalf("bad -events: %v", err)
		}
		cfg.Failures = timeline
	}

	fmt.Printf("solving %s with PCG: %d rows, %d nnz, %d nodes, strategy %v (T=%d, φ=%d)\n",
		name, a.Rows, a.NNZ(), *nodes, strat, *tInt, *phi)
	res, err := esrp.Solve(cfg)
	if err != nil {
		fatalf("solve: %v", err)
	}

	status := "converged"
	if !res.Converged {
		status = "DID NOT CONVERGE"
	}
	fmt.Printf("%s: %d iterations (relres %.3e), simulated time %.4g s, wall %v\n",
		status, res.Iterations, res.RelResidual, res.SimTime, res.WallTime.Round(1e6))
	if res.Recovered {
		fmt.Printf("recovered from node failure: rolled back to iteration %d (%d iterations wasted), recovery cost %.4g s simulated\n",
			res.RecoveredAt, res.WastedIters, res.RecoveryTime)
		for i, ev := range res.Events {
			fmt.Printf("  event %d: %s\n", i, ev)
		}
		if res.ActiveNodes < *nodes {
			fmt.Printf("cluster shrank to %d active nodes (no spares)\n", res.ActiveNodes)
		}
	}
	fmt.Printf("residual drift (Eq. 2): %.3e\n", res.Drift)
	if *verbose {
		fmt.Printf("traffic: %d messages, %d payload bytes (%d halo)\n", res.MsgsSent, res.BytesSent, res.HaloBytes)
		fmt.Printf("per-node memory: %d bytes max (O(local+halo))\n", res.MaxNodeBytes)
		fmt.Printf("spmv kernels: %s\n", esrp.CondenseKernels(res.Kernels))
		printResiduals(res.Trace.Series)
		printRecoveryBreakdown(res.Trace)
	}
	if *tracePath != "" {
		if err := obs.WriteChromeFile(*tracePath, res.Trace); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("trace: %s (open in https://ui.perfetto.dev)\n", *tracePath)
	}
	if *seriesPath != "" {
		if err := writeSeries(res.Trace, *seriesPath); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("series: %s (%d iteration samples)\n", *seriesPath, len(res.Trace.Series))
	}
	if !res.Converged {
		os.Exit(1)
	}
}

// printResiduals shows the residual history's head and tail — enough to see
// the convergence slope and any post-recovery jump without pages of output.
func printResiduals(series []esrp.IterPoint) {
	fmt.Printf("recorded %d residuals\n", len(series))
	const edge = 4
	for i, p := range series {
		if i == edge && len(series) > 2*edge {
			fmt.Printf("  ... %d more ...\n", len(series)-2*edge)
		}
		if i < edge || i >= len(series)-edge {
			fmt.Printf("  resid[%d] = %.6e\n", i, p.RelRes)
		}
	}
}

// printRecoveryBreakdown itemizes each failure event's simulated recovery
// cost from the trace envelopes.
func printRecoveryBreakdown(tr *esrp.Trace) {
	stats := tr.RecoveryStats()
	if len(stats) == 0 {
		return
	}
	fmt.Printf("recovery breakdown (%d events):\n", len(stats))
	for _, st := range stats {
		fmt.Printf("  iter %d: %.4g s simulated across %d ranks\n", st.Iter, st.Time, st.Ranks)
	}
}

// writeSeries exports the per-iteration series, JSON or CSV by extension.
func writeSeries(tr *esrp.Trace, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = tr.WriteSeriesJSON(f)
	} else {
		err = tr.WriteSeriesCSV(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func loadMatrix(file, gen string, n int, seed int64) (*esrp.CSR, string, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		a, err := sparse.ReadMatrixMarket(f)
		if err != nil {
			return nil, "", fmt.Errorf("reading %s: %w", file, err)
		}
		return a, file, nil
	}
	m, err := campaign.Generate(gen, n, seed)
	return m.A, m.Name, err
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "esrpsolve: "+format+"\n", args...)
	os.Exit(1)
}
