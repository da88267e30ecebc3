package replay_test

import (
	"fmt"
	"testing"

	"esrp/internal/core"
	"esrp/internal/matgen"
	"esrp/internal/replay"
)

// BenchmarkRecostAll prices the two halves of a machine sweep's per-schedule
// work on a 16-rank ESRP solve (T = 20, φ = 1, EmiliaLike 12³, one failure,
// 100 iterations): the validating decode of its wire bytes, and the re-cost
// walk under one and under eight machine models. Each reports ns/event, so
// decode + K=8 is what one cached schedule costs a sweep of eight machines.
func BenchmarkRecostAll(b *testing.B) {
	a := matgen.EmiliaLike(12, 12, 12, 1)
	rec := replay.NewRecorder()
	_, err := core.Solve(core.Config{
		A: a, B: matgen.RHSOnes(a.Rows), Nodes: 16, Rtol: 1e-30, MaxIter: 100,
		Strategy: core.StrategyESRP, T: 20, Phi: 1,
		Failures: []core.FailureSpec{{Iteration: 45, Ranks: []int{5}}},
		Record:   rec,
	})
	if err != nil {
		b.Fatal(err)
	}
	data, err := rec.Schedule().EncodeBinary()
	if err != nil {
		b.Fatal(err)
	}
	sched, err := replay.DecodeBinary(data)
	if err != nil {
		b.Fatal(err)
	}
	perEvent := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(sched.NumEvents()), "ns/event")
	}

	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := replay.DecodeBinary(data); err != nil {
				b.Fatal(err)
			}
		}
		perEvent(b)
	})
	for _, k := range []int{1, 8} {
		ms := make([]replay.CostModel, k)
		for j := range ms {
			ms[j] = replay.CostModel{FlopTime: 1e-9, Latency: 1e-6 * float64(j+1), BytePeriod: 1e-9 / float64(j+1), Overhead: 2e-7}
		}
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := sched.RecostAll(ms); err != nil {
					b.Fatal(err)
				}
			}
			perEvent(b)
		})
	}
}
