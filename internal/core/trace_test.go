package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"esrp/internal/cluster"
	"esrp/internal/obs"
	"esrp/internal/replay"
)

// TestTraceNilWhenDisabled pins the disabled contract: without Observe the
// result carries no trace and the recorder machinery stays off the path.
func TestTraceNilWhenDisabled(t *testing.T) {
	res := solveOK(t, baseConfig(t))
	if res.Trace != nil {
		t.Fatal("Result.Trace must be nil without Config.Observe")
	}
	cfg := baseConfig(t)
	cfg.Observe = &obs.Options{} // present but all-off: still disabled
	if res := solveOK(t, cfg); res.Trace != nil {
		t.Fatal("Result.Trace must be nil for zero Observe options")
	}
}

// TestTraceDoesNotPerturbSolve is the observer-effect gate: turning the
// recorder on must not change one bit of the trajectory or the modeled
// runtime, with and without failures.
func TestTraceDoesNotPerturbSolve(t *testing.T) {
	run := func(name string, mut func(*Config)) {
		t.Helper()
		plain := baseConfig(t)
		mut(&plain)
		traced := plain
		traced.Observe = &obs.Options{Trace: true, Series: true}
		a, err := Solve(plain)
		if err != nil {
			t.Fatalf("%s plain: %v", name, err)
		}
		b, err := Solve(traced)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if b.Trace == nil {
			t.Fatalf("%s: traced run returned no trace", name)
		}
		if a.SimTime != b.SimTime {
			t.Errorf("%s: SimTime %v != %v with tracing on", name, a.SimTime, b.SimTime)
		}
		if a.Iterations != b.Iterations || a.RelResidual != b.RelResidual {
			t.Errorf("%s: trajectory changed with tracing on", name)
		}
		if !reflect.DeepEqual(a.X, b.X) {
			t.Errorf("%s: iterand changed with tracing on", name)
		}
		if a.BytesSent != b.BytesSent || a.MsgsSent != b.MsgsSent {
			t.Errorf("%s: traffic changed with tracing on", name)
		}
		if !reflect.DeepEqual(a.Events, b.Events) {
			t.Errorf("%s: recovery events changed with tracing on", name)
		}
	}

	run("esrp-failure", func(cfg *Config) {
		cfg.Strategy = StrategyESRP
		cfg.T = 20
		cfg.Phi = 1
		cfg.Failures = []FailureSpec{{Iteration: 50, Ranks: []int{3}}}
	})
	run("imcr-failure", func(cfg *Config) {
		cfg.Strategy = StrategyIMCR
		cfg.T = 20
		cfg.Phi = 1
		cfg.Failures = []FailureSpec{{Iteration: 50, Ranks: []int{3}}}
	})
	run("none", func(cfg *Config) { cfg.Strategy = StrategyNone })
}

// TestTraceByteDeterminism pins the export contract: the same configuration
// always yields byte-identical Chrome trace JSON.
func TestTraceByteDeterminism(t *testing.T) {
	render := func() []byte {
		cfg := baseConfig(t)
		cfg.Strategy = StrategyESRP
		cfg.T = 20
		cfg.Phi = 1
		cfg.Failures = []FailureSpec{{Iteration: 30, Ranks: []int{2}}, {Iteration: 60, Ranks: []int{5}}}
		cfg.Observe = &obs.Options{Trace: true, Series: true}
		res := solveOK(t, cfg)
		var buf bytes.Buffer
		if err := res.Trace.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatal("trace JSON differs between identical runs")
	}
	if err := obs.ValidateChromeTrace(a); err != nil {
		t.Fatalf("emitted trace fails schema validation: %v", err)
	}
}

// TestTraceCoverage checks the taxonomy's completeness: on a failure run the
// leaf spans of the critical rank must account for ≥95% of the modeled
// runtime — nothing substantial happens on the simulated clock without a
// span saying what it was.
func TestTraceCoverage(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"esrp", func(cfg *Config) {
			cfg.Strategy = StrategyESRP
			cfg.T = 20
			cfg.Phi = 1
			cfg.Failures = []FailureSpec{{Iteration: 50, Ranks: []int{3}}}
			cfg.DetectionTime = 1e-4
		}},
		{"imcr", func(cfg *Config) {
			cfg.Strategy = StrategyIMCR
			cfg.T = 20
			cfg.Phi = 1
			cfg.Failures = []FailureSpec{{Iteration: 50, Ranks: []int{3}}}
		}},
		{"esr-nospare", func(cfg *Config) {
			cfg.Strategy = StrategyESR
			cfg.Phi = 2
			cfg.NoSpareNodes = true
			cfg.Failures = []FailureSpec{{Iteration: 40, Ranks: []int{3, 4}}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig(t)
			tc.mut(&cfg)
			cfg.Observe = &obs.Options{Trace: true}
			res, err := Solve(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Trace == nil {
				t.Fatal("no trace recorded")
			}
			rank, frac := res.Trace.Coverage()
			if frac < 0.95 {
				tot := res.Trace.Totals()
				t.Errorf("leaf spans cover %.1f%% of rank %d's timeline, want ≥95%% (totals %v, simtime %v)",
					100*frac, rank, tot, res.Trace.SimTime)
			}
			if frac > 1+1e-9 {
				t.Errorf("coverage %.4f > 1: leaf spans overlap", frac)
			}
		})
	}
}

// TestTraceRecoveryStats checks the per-event envelopes: one stat per
// injected failure, at the right iterations, with positive modeled cost.
func TestTraceRecoveryStats(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Strategy = StrategyESRP
	cfg.T = 20
	cfg.Phi = 1
	cfg.Failures = []FailureSpec{{Iteration: 30, Ranks: []int{2}}, {Iteration: 60, Ranks: []int{5}}}
	cfg.Observe = &obs.Options{Trace: true}
	res := solveOK(t, cfg)
	stats := res.Trace.RecoveryStats()
	if len(stats) != len(res.Events) {
		t.Fatalf("got %d recovery stats, want %d (one per handled event)", len(stats), len(res.Events))
	}
	for i, st := range stats {
		if st.Iter != res.Events[i].Iteration {
			t.Errorf("stat %d at iter %d, event at %d", i, st.Iter, res.Events[i].Iteration)
		}
		if st.Time <= 0 {
			t.Errorf("stat %d has non-positive recovery time %v", i, st.Time)
		}
		if st.Ranks == 0 {
			t.Errorf("stat %d recorded no ranks", i)
		}
	}
}

// TestTraceSeries checks the iteration series: one point per productive
// step, monotone steps, cumulative counters, wasted-work attribution
// consistent with the rollback, and the final relres matching the result.
func TestTraceSeries(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Strategy = StrategyESRP
	cfg.T = 20
	cfg.Phi = 1
	cfg.Failures = []FailureSpec{{Iteration: 50, Ranks: []int{3}}}
	cfg.Observe = &obs.Options{Series: true}
	res := solveOK(t, cfg)
	pts := res.Trace.Series
	if len(pts) != res.Iterations+res.WastedIters {
		t.Fatalf("%d series points, want %d iterations + %d wasted", len(pts), res.Iterations, res.WastedIters)
	}
	wasted := 0
	for i, p := range pts {
		// Steps increase strictly; the step interrupted by the failure itself
		// never reaches its sampling point, so gaps are legal.
		if i > 0 && p.Step <= pts[i-1].Step {
			t.Fatalf("point %d has step %d after step %d", i, p.Step, pts[i-1].Step)
		}
		if i > 0 && (p.Clock < pts[i-1].Clock || p.Bytes < pts[i-1].Bytes || p.Msgs < pts[i-1].Msgs) {
			t.Fatalf("cumulative counters regressed at step %d", i)
		}
		if p.Wasted {
			wasted++
		}
	}
	if wasted != res.WastedIters {
		t.Errorf("series marks %d wasted steps, result reports %d", wasted, res.WastedIters)
	}
	last := pts[len(pts)-1]
	if math.Abs(last.RelRes-res.RelResidual)/res.RelResidual > 1e-12 {
		t.Errorf("final series relres %g != result relres %g", last.RelRes, res.RelResidual)
	}
	if last.RelRes >= cfg.Rtol {
		t.Errorf("final series relres %g ≥ rtol", last.RelRes)
	}
}

// TestTraceSeriesFollowsRankZero: the series is the communicator rank 0's,
// so it stays whole when a shrink retires global rank 0 and the lowest
// survivor takes the role over. On spareThenTwoShrinks it holds one point
// per productive step; its head is global rank 0's series and its tail the
// new rank 0's, each pinned by digestOf as the build before the hand-off
// recorded them (its series stopped at the shrink, and a separate residual
// log held the tail). It also checks the contract obs.Builder.Build states:
// global-rank order is chronological, so steps strictly increase, the clock
// never falls, and markWasted flags exactly WastedIters points.
func TestTraceSeriesFollowsRankZero(t *testing.T) {
	for _, c := range []struct {
		strategy               Strategy
		head, tail             int
		headDigest, tailDigest string
	}{
		{StrategyESR, 75, 35, "eeca58ff3186e292", "55e0c3cf121477c7"},
		{StrategyESRP, 88, 39, "15aad5659269274f", "97ae33e371dc3f64"},
	} {
		t.Run(c.strategy.String(), func(t *testing.T) {
			cfg := stormBase(t, c.strategy)
			spareThenTwoShrinks(&cfg)
			res, err := Solve(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pts := res.Trace.Series
			if len(pts) != res.Iterations+res.WastedIters || len(pts) != c.head+c.tail {
				t.Fatalf("%d series points, want %d iterations + %d wasted = %d + %d",
					len(pts), res.Iterations, res.WastedIters, c.head, c.tail)
			}
			resid := residualsOf(res)
			if got := digestOf(resid[:c.head]); got != c.headDigest {
				t.Errorf("global rank 0's %d points digest to %s, want %s", c.head, got, c.headDigest)
			}
			if got := digestOf(resid[c.head:]); got != c.tailDigest {
				t.Errorf("the new rank 0's %d points digest to %s, want %s", c.tail, got, c.tailDigest)
			}
			wasted := 0
			for i, p := range pts {
				if i > 0 && p.Step <= pts[i-1].Step {
					t.Fatalf("point %d has step %d after step %d", i, p.Step, pts[i-1].Step)
				}
				if i > 0 && p.Clock < pts[i-1].Clock {
					t.Fatalf("clock fell from %v to %v at point %d", pts[i-1].Clock, p.Clock, i)
				}
				if p.Wasted {
					wasted++
				}
			}
			if wasted != res.WastedIters {
				t.Errorf("series marks %d wasted steps, result reports %d", wasted, res.WastedIters)
			}
			for g, spans := range res.Trace.Ranks {
				if len(spans) != 0 {
					t.Errorf("series-only observation recorded %d spans on rank %d", len(spans), g)
				}
			}
		})
	}
}

// TestTraceSurvivesShrink checks that the no-spare path records into the
// same buffers after the cluster shrinks (the tracer rides the shared node
// state across Sub views).
func TestTraceSurvivesShrink(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Strategy = StrategyESR
	cfg.Phi = 2
	cfg.NoSpareNodes = true
	cfg.Failures = []FailureSpec{{Iteration: 40, Ranks: []int{3, 4}}}
	cfg.Observe = &obs.Options{Trace: true}
	res := solveOK(t, cfg)
	if res.ActiveNodes >= cfg.Nodes {
		t.Fatal("scenario did not shrink the cluster")
	}
	// The failed ranks retire at the failure; survivors keep recording to
	// the end of the solve.
	failedLast := res.Trace.Ranks[3][len(res.Trace.Ranks[3])-1].End
	survivorLast := res.Trace.Ranks[0][len(res.Trace.Ranks[0])-1].End
	if survivorLast <= failedLast {
		t.Errorf("survivor timeline ends at %v, not past the failed rank's %v", survivorLast, failedLast)
	}
}

// TestTraceIsMachineIndependent checks that a trace is a view of the
// schedule: on the traced scenarios of golden_driver.json, the schedule a
// solve records under the default machine, walked under another machine
// with the recording solve's residual samples, renders to the Chrome bytes
// a solve under that machine renders — with latency ×4 and with the byte
// period ×2.
func TestTraceIsMachineIndependent(t *testing.T) {
	chrome := func(tr *obs.Trace) []byte {
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	opts := obs.Options{Trace: true, Series: true}
	base := cluster.DefaultCostModel()
	slow, narrow := base, base
	slow.Latency *= 4
	narrow.BytePeriod *= 2
	for _, sc := range driverScenarios() {
		if !sc.trace {
			continue
		}
		cfg := driverConfig(t, sc)
		cfg.Observe, cfg.Record = &opts, replay.NewRecorder()
		recorded := solveOK(t, cfg)
		sched := cfg.Record.Schedule()
		for name, m := range map[string]cluster.CostModel{"L×4": slow, "G×2": narrow} {
			live := driverConfig(t, sc)
			live.Observe, live.CostModel = &opts, &m
			want := chrome(solveOK(t, live).Trace)
			if bytes.Equal(want, chrome(recorded.Trace)) {
				t.Fatalf("%s: the trace under %s is the default machine's; the check is vacuous", sc.name, name)
			}

			_, tr, err := sched.Trace(m, opts)
			if err != nil {
				t.Fatalf("%s under %s: %v", sc.name, name, err)
			}
			if len(tr.Series) != len(recorded.Trace.Series) {
				t.Fatalf("%s under %s: %d series points, the recording solve sampled %d", sc.name, name, len(tr.Series), len(recorded.Trace.Series))
			}
			for i, p := range recorded.Trace.Series {
				tr.Series[i].Step, tr.Series[i].RelRes = p.Step, p.RelRes
			}
			if got := chrome(tr); !bytes.Equal(got, want) {
				t.Errorf("%s: the schedule walked under %s renders %d bytes unlike the %d of a solve under it", sc.name, name, len(got), len(want))
			}
		}
	}
}
