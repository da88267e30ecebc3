package core

import (
	"bytes"
	"fmt"
	"hash/fnv"
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

// TestTraceCoverage checks the taxonomy's completeness: on failure runs
// each rank's spans tile its timeline exactly, from 0 to its last event, and
// the latest end is SimTime. Nothing happens on the simulated clock without
// a span saying what it was.
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
			if err := res.Trace.CheckTiling(); err != nil {
				t.Errorf("the spans do not tile the timeline: %v (totals %v)", err, res.Trace.Totals())
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
		cfg.Observe = &opts
		recorded := solveOK(t, cfg)
		for name, m := range map[string]cluster.CostModel{"L×4": slow, "G×2": narrow} {
			live := driverConfig(t, sc)
			live.Observe, live.CostModel = &opts, &m
			want := chrome(solveOK(t, live).Trace)
			if bytes.Equal(want, chrome(recorded.Trace)) {
				t.Fatalf("%s: the trace under %s is the default machine's; the check is vacuous", sc.name, name)
			}

			_, tr, err := recorded.Schedule.Trace(m, opts, recorded.Trace.Series)
			if err != nil {
				t.Fatalf("%s under %s: %v", sc.name, name, err)
			}
			if got := chrome(tr); !bytes.Equal(got, want) {
				t.Errorf("%s: the schedule walked under %s renders %d bytes unlike the %d of a solve under it", sc.name, name, len(got), len(want))
			}
		}
	}
}

// TestResultScheduleIsFrozenOnce pins Result.Schedule on standard/esrp-spare.
// Without Record and Observe it is nil. With a caller's recorder it is the
// very schedule that recorder's Schedule returns, so the solve and its
// caller share one freeze. With the caller's recorder and with Observe's
// own, its bytes are those a caller's recorder froze before Result.Schedule
// existed: 6 655 bytes of FNV-64a digest 7892a0f6c2183a26.
func TestResultScheduleIsFrozenOnce(t *testing.T) {
	var sc driverScenario
	for _, sc = range driverScenarios() {
		if sc.name == "standard/esrp-spare" {
			break
		}
	}
	digest := func(s *replay.Schedule) string {
		data, err := s.EncodeBinary()
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(data)
		return fmt.Sprintf("%d bytes of digest %016x", len(data), h.Sum64())
	}
	const want = "6655 bytes of digest 7892a0f6c2183a26"

	plain := driverConfig(t, sc)
	plain.Observe = nil
	if res := solveOK(t, plain); res.Schedule != nil {
		t.Error("a solve without Record or Observe hands back a schedule")
	}
	recorded := plain
	recorded.Record = replay.NewRecorder()
	res := solveOK(t, recorded)
	if res.Schedule == nil || res.Schedule != recorded.Record.Schedule() {
		t.Fatal("Result.Schedule is not the schedule the caller's recorder returns")
	}
	if got := digest(res.Schedule); got != want {
		t.Errorf("the caller's recorder froze %s, want %s", got, want)
	}
	if got := digest(solveOK(t, driverConfig(t, sc)).Schedule); got != want {
		t.Errorf("Observe's recorder froze %s, want %s", got, want)
	}
}
