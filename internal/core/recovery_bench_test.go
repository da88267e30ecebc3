package core

import (
	"testing"

	"esrp/internal/matgen"
)

// BenchmarkRecovery is one recovery per strategy on the recovery-storm
// matrix family (AudikwLike 10³ × 3 on 8 ranks, φ = 3): a 60-iteration solve
// with one ψ = 3 event at iteration 25, sharing a Prepared context and a
// Workspace the way the benchmark's passes do. "none" is the failure-free
// twin of the esr case, so a strategy's recovery cost reads as the
// difference to it; "shrink" is ESRP with an empty spare pool.
func BenchmarkRecovery(b *testing.B) {
	a := matgen.AudikwLike(10, 10, 10, 3, 3)
	rhs, _ := matgen.RHSForSolution(a, 4)
	event := []FailureSpec{{Iteration: 25, Ranks: []int{2, 3, 4}}}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"none", func(cfg *Config) { cfg.Strategy = StrategyESR; cfg.Failures = nil }},
		{"esr", func(cfg *Config) { cfg.Strategy = StrategyESR }},
		{"esrp", func(cfg *Config) { cfg.Strategy = StrategyESRP; cfg.T = 20 }},
		{"imcr", func(cfg *Config) { cfg.Strategy = StrategyIMCR; cfg.T = 20 }},
		{"shrink", func(cfg *Config) { cfg.Strategy = StrategyESRP; cfg.T = 20; cfg.NoSpareNodes = true }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cfg := Config{A: a, B: rhs, Nodes: 8, Rtol: 1e-300, MaxIter: 60, Phi: 3, Failures: event}
			c.mut(&cfg)
			prep, err := Prepare(cfg)
			if err != nil {
				b.Fatal(err)
			}
			cfg.Prepared = prep
			cfg.Workspace = NewWorkspace()
			b.ReportAllocs()
			for b.Loop() {
				res, err := Solve(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Events) != len(cfg.Failures) {
					b.Fatalf("%d of %d events fired", len(res.Events), len(cfg.Failures))
				}
			}
		})
	}
}
