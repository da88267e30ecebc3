package core

import (
	"reflect"
	"testing"

	"esrp/internal/matgen"
	"esrp/internal/obs"
)

// multiBase returns a problem big enough that three failure events fit well
// before convergence.
func multiBase(t *testing.T) Config {
	t.Helper()
	a := matgen.Poisson2D(48, 48)
	b, _ := matgen.RHSForSolution(a, 7)
	return Config{A: a, B: b, Nodes: 8, Rtol: 1e-8, Observe: &obs.Options{Series: true}}
}

// Three events, unlimited spares: every recovery takes the spare path and
// the solve converges to the right solution.
func TestESRMultiEventUnlimitedSpares(t *testing.T) {
	cfg := multiBase(t)
	cfg.Strategy = StrategyESR
	cfg.Phi = 2
	cfg.Failures = []FailureSpec{
		{Iteration: 20, Ranks: []int{1}},
		{Iteration: 45, Ranks: []int{4, 5}},
		{Iteration: 70, Ranks: []int{1}}, // the same node can fail again
	}
	res := solveOK(t, cfg)
	checkSolution(t, cfg, res, 1e-6)
	if len(res.Events) != 3 {
		t.Fatalf("got %d recovery events, want 3: %+v", len(res.Events), res.Events)
	}
	for i, ev := range res.Events {
		if ev.Mode != RecoverySpare {
			t.Errorf("event %d mode %q, want %q", i, ev.Mode, RecoverySpare)
		}
		if ev.SparesLeft != -1 {
			t.Errorf("event %d spares left %d, want -1 (unlimited)", i, ev.SparesLeft)
		}
	}
	if res.ActiveNodes != cfg.Nodes {
		t.Fatalf("active nodes %d, want %d (spares never exhaust)", res.ActiveNodes, cfg.Nodes)
	}
	// ESR reconstructs the exact current iteration: recoveries happen but no
	// work is discarded.
	if !res.Recovered || res.WastedIters != 0 {
		t.Errorf("ESR recovery should waste nothing: recovered=%v wasted=%d", res.Recovered, res.WastedIters)
	}
}

// Same scenario twice ⇒ bitwise-identical trajectory (iterand, residual log,
// simulated time, event log).
func TestMultiEventDeterminism(t *testing.T) {
	mk := func() *Result {
		cfg := multiBase(t)
		cfg.Strategy = StrategyESRP
		cfg.T = 12
		cfg.Phi = 2
		cfg.Spares = 2
		cfg.Failures = []FailureSpec{
			{Iteration: 25, Ranks: []int{2, 3}},
			{Iteration: 50, Ranks: []int{5}},
			{Iteration: 75, Ranks: []int{0}},
		}
		return solveOK(t, cfg)
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a.X, b.X) {
		t.Error("iterands differ between identical runs")
	}
	if !reflect.DeepEqual(residualsOf(a), residualsOf(b)) {
		t.Error("residual logs differ between identical runs")
	}
	if a.SimTime != b.SimTime {
		t.Errorf("simulated times differ: %g vs %g", a.SimTime, b.SimTime)
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Errorf("event logs differ:\n%+v\n%+v", a.Events, b.Events)
	}
}

// Spare pool exhausted mid-run: the first event consumes the pool, the later
// ones fall back to the no-spare shrink, and the cluster ends smaller while
// still converging to the right solution.
func TestSparePoolExhaustionFallsBackToShrink(t *testing.T) {
	cfg := multiBase(t)
	cfg.Strategy = StrategyESR
	cfg.Phi = 1
	cfg.Spares = 1
	cfg.Failures = []FailureSpec{
		{Iteration: 20, Ranks: []int{3}}, // consumes the last spare
		{Iteration: 45, Ranks: []int{5}}, // pool empty: shrink to 7 nodes
		{Iteration: 70, Ranks: []int{2}}, // still empty: shrink to 6 nodes
	}
	res := solveOK(t, cfg)
	checkSolution(t, cfg, res, 1e-6)
	if len(res.Events) != 3 {
		t.Fatalf("got %d events, want 3: %+v", len(res.Events), res.Events)
	}
	wantModes := []string{RecoverySpare, RecoveryShrink, RecoveryShrink}
	wantSpares := []int{0, 0, 0}
	for i, ev := range res.Events {
		if ev.Mode != wantModes[i] {
			t.Errorf("event %d mode %q, want %q", i, ev.Mode, wantModes[i])
		}
		if ev.SparesLeft != wantSpares[i] {
			t.Errorf("event %d spares left %d, want %d", i, ev.SparesLeft, wantSpares[i])
		}
	}
	if res.Events[1].ActiveNodes != 7 || res.Events[2].ActiveNodes != 6 {
		t.Errorf("active nodes after shrinks = %d, %d; want 7, 6",
			res.Events[1].ActiveNodes, res.Events[2].ActiveNodes)
	}
	if res.ActiveNodes != 6 {
		t.Fatalf("final active nodes %d, want 6", res.ActiveNodes)
	}
}

// ESRP variant of the exhaustion path: the pool covers the first two-node
// event exactly, the follow-up shrinks.
func TestSparePoolExhaustionESRP(t *testing.T) {
	cfg := multiBase(t)
	cfg.Strategy = StrategyESRP
	cfg.T = 12
	cfg.Phi = 2
	cfg.Spares = 2
	cfg.Failures = []FailureSpec{
		{Iteration: 30, Ranks: []int{2, 3}},
		{Iteration: 60, Ranks: []int{6}},
	}
	res := solveOK(t, cfg)
	checkSolution(t, cfg, res, 1e-6)
	if res.Events[0].Mode != RecoverySpare || res.Events[1].Mode != RecoveryShrink {
		t.Fatalf("modes = %q, %q; want spare, shrink", res.Events[0].Mode, res.Events[1].Mode)
	}
	if res.ActiveNodes != 7 {
		t.Fatalf("active nodes %d, want 7", res.ActiveNodes)
	}
}

// A partially-sufficient pool (1 spare, 2 simultaneous failures) must not
// split the event: the whole event takes the shrink path and the spare is
// kept.
func TestSparePoolNeverSplitsAnEvent(t *testing.T) {
	cfg := multiBase(t)
	cfg.Strategy = StrategyESR
	cfg.Phi = 2
	cfg.Spares = 1
	cfg.Failures = []FailureSpec{{Iteration: 25, Ranks: []int{4, 5}}}
	res := solveOK(t, cfg)
	checkSolution(t, cfg, res, 1e-6)
	if res.Events[0].Mode != RecoveryShrink {
		t.Fatalf("mode %q, want shrink", res.Events[0].Mode)
	}
	if res.Events[0].SparesLeft != 1 {
		t.Fatalf("spare consumed by a shrink recovery: left %d, want 1", res.Events[0].SparesLeft)
	}
	if res.ActiveNodes != 6 {
		t.Fatalf("active nodes %d, want 6", res.ActiveNodes)
	}
}

// Multi-event IMCR: the re-shipped checkpoints keep buddy relationships
// whole across consecutive failures.
func TestIMCRMultiEvent(t *testing.T) {
	cfg := multiBase(t)
	cfg.Strategy = StrategyIMCR
	cfg.T = 10
	cfg.Phi = 1
	cfg.Failures = []FailureSpec{
		{Iteration: 22, Ranks: []int{3}},
		{Iteration: 24, Ranks: []int{4}}, // before the next checkpoint stage
		{Iteration: 55, Ranks: []int{3}},
	}
	res := solveOK(t, cfg)
	checkSolution(t, cfg, res, 1e-6)
	if len(res.Events) != 3 {
		t.Fatalf("got %d events, want 3", len(res.Events))
	}
	for i, ev := range res.Events {
		if ev.Mode != RecoverySpare {
			t.Errorf("event %d mode %q, want spare", i, ev.Mode)
		}
	}
}

// ESR events in consecutive iterations right after a rollback: stresses the
// queue refill and the coverage vote.
func TestESRBackToBackEvents(t *testing.T) {
	cfg := multiBase(t)
	cfg.Strategy = StrategyESR
	cfg.Phi = 1
	cfg.Failures = []FailureSpec{
		{Iteration: 20, Ranks: []int{1}},
		{Iteration: 21, Ranks: []int{2}},
		{Iteration: 22, Ranks: []int{1}},
	}
	res := solveOK(t, cfg)
	checkSolution(t, cfg, res, 1e-6)
	if len(res.Events) != 3 {
		t.Fatalf("got %d events, want 3", len(res.Events))
	}
}

// StrategyNone with a timeline: every event degrades to a local restart but
// the solve still converges.
func TestNoneMultiEventRestarts(t *testing.T) {
	cfg := multiBase(t)
	cfg.Strategy = StrategyNone
	cfg.Failures = []FailureSpec{
		{Iteration: 20, Ranks: []int{1}},
		{Iteration: 50, Ranks: []int{6}},
	}
	res := solveOK(t, cfg)
	checkSolution(t, cfg, res, 1e-6)
	for i, ev := range res.Events {
		if ev.Mode != RecoveryRestart {
			t.Errorf("event %d mode %q, want restart", i, ev.Mode)
		}
	}
}

// Timeline validation: out-of-order events, duplicate ranks, bad spare
// pools.
func TestMultiEventValidation(t *testing.T) {
	a := matgen.Poisson2D(16, 16)
	b := matgen.RHSOnes(a.Rows)
	bad := []Config{
		{A: a, B: b, Nodes: 4, Strategy: StrategyESR, Phi: 1, Failures: []FailureSpec{
			{Iteration: 20, Ranks: []int{1}}, {Iteration: 10, Ranks: []int{2}}}}, // out of order
		{A: a, B: b, Nodes: 4, Strategy: StrategyESR, Phi: 1, Failures: []FailureSpec{
			{Iteration: 10, Ranks: []int{1}}, {Iteration: 10, Ranks: []int{2}}}}, // duplicate iteration
		{A: a, B: b, Nodes: 4, Strategy: StrategyESR, Phi: 2, Failures: []FailureSpec{
			{Iteration: 10, Ranks: []int{1, 1}}}}, // duplicate rank
		{A: a, B: b, Nodes: 4, Strategy: StrategyESR, Phi: 1, Spares: -1},                    // negative pool
		{A: a, B: b, Nodes: 4, Strategy: StrategyIMCR, T: 5, Phi: 1, Spares: 2},              // finite pool needs ESR/ESRP
		{A: a, B: b, Nodes: 4, Strategy: StrategyESR, Phi: 1, Spares: 2, NoSpareNodes: true}, // pool vs no-spare
	}
	for i, cfg := range bad {
		if _, err := Solve(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// The paper's single failure is a one-element timeline: one event record,
// and the scalar recovery fields agree with it.
func TestSingleEventTimeline(t *testing.T) {
	cfg := multiBase(t)
	cfg.Strategy = StrategyESR
	cfg.Phi = 1
	cfg.Failures = []FailureSpec{{Iteration: 30, Ranks: []int{3}}}
	res := solveOK(t, cfg)
	if len(res.Events) != 1 || res.Events[0].Mode != RecoverySpare {
		t.Fatalf("events = %+v, want one spare recovery", res.Events)
	}
	if !res.Recovered || res.RecoveredAt != res.Events[0].RecoveredAt {
		t.Fatalf("scalar recovery fields inconsistent with the event log: %+v", res)
	}
}

// Recovery-heavy runs must report a strictly larger per-node footprint than
// the steady state the failure-free run samples: the reconstruction scratch
// is part of the high-water mark now.
func TestMaxNodeBytesSamplesRecoveryScratch(t *testing.T) {
	ff := multiBase(t)
	ff.Strategy = StrategyESR
	ff.Phi = 1
	ffRes := solveOK(t, ff)

	fail := multiBase(t)
	fail.Strategy = StrategyESR
	fail.Phi = 1
	fail.Failures = []FailureSpec{{Iteration: 30, Ranks: []int{3}}}
	failRes := solveOK(t, fail)

	if failRes.MaxNodeBytes <= ffRes.MaxNodeBytes {
		t.Fatalf("recovery run footprint %d not above failure-free %d — transient scratch unsampled",
			failRes.MaxNodeBytes, ffRes.MaxNodeBytes)
	}
}

// A second ESRP event striking before the re-filled redundancy queue covers
// the reconstruction pair again: the coverage vote must degrade the recovery
// to a consistent restart from the rolled-back starred state, with the
// discarded work counted.
func TestESRPVoteDegradesToRestart(t *testing.T) {
	cfg := multiBase(t)
	cfg.Strategy = StrategyESRP
	cfg.T = 20
	cfg.Phi = 1
	cfg.Failures = []FailureSpec{
		{Iteration: 25, Ranks: []int{3}}, // recovers to the stage at 21; rank 3's queue restarts
		{Iteration: 27, Ranks: []int{4}}, // needs copies of iteration 20, which rank 3 lost
	}
	res := solveOK(t, cfg)
	checkSolution(t, cfg, res, 1e-6)
	if res.Events[0].Mode != RecoverySpare {
		t.Fatalf("event 0 mode %q, want spare", res.Events[0].Mode)
	}
	ev := res.Events[1]
	if ev.Mode != RecoveryRestart {
		t.Fatalf("event 1 mode %q, want restart (incomplete redundant copies)", ev.Mode)
	}
	// The restart resumes from the starred state of iteration 21 that the
	// survivors already rolled back to, so the work since then counts as
	// wasted.
	if ev.RecoveredAt != 21 || ev.WastedIters != 27-21 {
		t.Fatalf("event 1 resumed at %d with %d wasted, want 21 and 6", ev.RecoveredAt, ev.WastedIters)
	}
}
