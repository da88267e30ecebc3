package core

import (
	"testing"

	"esrp/internal/obs"
)

// TestDriverInvariants checks what the step loop and the failure handling
// own, scenario by scenario: step and wasted-iteration bookkeeping, the
// event log, the recovery summary, the footprint accounting, the kernel
// report, and that each rank's spans tile its timeline exactly.
func TestDriverInvariants(t *testing.T) {
	imcr := func(cfg *Config) { cfg.Strategy, cfg.T, cfg.Phi = StrategyIMCR, 20, 1 }
	scenarios := []struct {
		name  string
		mut   func(*Config)
		modes []string // expected recovery mode per event
	}{
		{"none-ff", func(cfg *Config) {}, nil},
		{"none-fail", func(cfg *Config) {
			cfg.Failures = []FailureSpec{{Iteration: 40, Ranks: []int{2, 3}}}
		}, []string{RecoveryRestart}},
		{"imcr-fail", func(cfg *Config) {
			imcr(cfg)
			cfg.Failures = []FailureSpec{{Iteration: 50, Ranks: []int{3}}}
		}, []string{RecoverySpare}},
		{"imcr-before-first-checkpoint", func(cfg *Config) {
			imcr(cfg)
			cfg.Failures = []FailureSpec{{Iteration: 5, Ranks: []int{1}}}
		}, []string{RecoveryRestart}},
		{"imcr-timeline-detect", func(cfg *Config) {
			imcr(cfg)
			cfg.DetectionTime = 1e-4
			cfg.Failures = []FailureSpec{{Iteration: 45, Ranks: []int{3}}, {Iteration: 47, Ranks: []int{2}}}
		}, []string{RecoverySpare, RecoverySpare}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			cfg := baseConfig(t)
			sc.mut(&cfg)
			cfg.Observe = &obs.Options{Trace: true}
			res, err := Solve(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("did not converge (relres %g)", res.RelResidual)
			}

			if len(res.Events) != len(sc.modes) {
				t.Fatalf("%d events logged, %d fired: %+v", len(res.Events), len(sc.modes), res.Events)
			}
			wasted := 0
			for i, ev := range res.Events {
				if ev.Mode != sc.modes[i] {
					t.Errorf("event %d: mode %q, want %q", i, ev.Mode, sc.modes[i])
				}
				if ev.WastedIters != ev.Iteration-ev.RecoveredAt || ev.ActiveNodes != cfg.Nodes {
					t.Errorf("event %d inconsistent: %+v", i, ev)
				}
				wasted += ev.WastedIters
			}
			// Every step either advances the trajectory, is rolled back,
			// or is the step an event interrupted.
			if res.WastedIters != wasted || res.TotalSteps-res.Iterations != wasted+len(res.Events) {
				t.Errorf("steps %d, iterations %d, wasted %d: events waste %d in %d interrupted steps",
					res.TotalSteps, res.Iterations, res.WastedIters, wasted, len(res.Events))
			}
			if res.Recovered != (len(res.Events) > 0) {
				t.Errorf("Recovered = %v with %d events", res.Recovered, len(res.Events))
			}
			if n := len(res.Events); n > 0 && res.RecoveredAt != res.Events[n-1].RecoveredAt {
				t.Errorf("RecoveredAt = %d, last event resumed at %d", res.RecoveredAt, res.Events[n-1].RecoveredAt)
			}
			if res.ActiveNodes != cfg.Nodes || len(res.Kernels) != cfg.Nodes {
				t.Errorf("%d active nodes, %d kernel names; want %d", res.ActiveNodes, len(res.Kernels), cfg.Nodes)
			}

			// Footprint: x, r, z, p, q and pg (counted as m), plus — once a
			// checkpoint stage has run — the own copy of x, r, z, p and one
			// held per buddy source.
			m := cfg.A.Rows / cfg.Nodes
			floor := 6 * m
			if cfg.Strategy == StrategyIMCR && res.Iterations > cfg.T {
				floor += (1 + cfg.Phi) * 4 * m
			}
			if res.MaxNodeBytes < int64(8*floor) {
				t.Errorf("MaxNodeBytes %d below the steady state of %d floats", res.MaxNodeBytes, floor)
			}

			if err := res.Trace.CheckTiling(); err != nil {
				t.Errorf("the spans do not tile the timeline: %v (totals %v)", err, res.Trace.Totals())
			}
		})
	}
}
