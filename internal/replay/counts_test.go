package replay_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"esrp/internal/core"
	"esrp/internal/matgen"
	"esrp/internal/replay"
)

// recostAllSchedule records the solve BenchmarkRecostAll prices and returns
// its wire bytes.
func recostAllSchedule(tb testing.TB) []byte {
	tb.Helper()
	a := matgen.EmiliaLike(12, 12, 12, 1)
	rec := replay.NewRecorder()
	_, err := core.Solve(core.Config{
		A: a, B: matgen.RHSOnes(a.Rows), Nodes: 16, Rtol: 1e-30, MaxIter: 100,
		Strategy: core.StrategyESRP, T: 20, Phi: 1,
		Failures: []core.FailureSpec{{Iteration: 45, Ranks: []int{5}}},
		Record:   rec,
	})
	if err != nil {
		tb.Fatal(err)
	}
	data, err := rec.Schedule().EncodeBinary()
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// recostAllModels returns the k machine models BenchmarkRecostAll prices
// under: the same flop time and overhead, latency growing and byte period
// shrinking with the index.
func recostAllModels(k int) []replay.CostModel {
	ms := make([]replay.CostModel, k)
	for j := range ms {
		ms[j] = replay.CostModel{FlopTime: 1e-9, Latency: 1e-6 * float64(j+1), BytePeriod: 1e-9 / float64(j+1), Overhead: 2e-7}
	}
	return ms
}

// BenchmarkRecostAll prices the two halves of a machine sweep's per-schedule
// work on a 16-rank ESRP solve (T = 20, φ = 1, EmiliaLike 12³, one failure,
// 100 iterations): the validating decode of its wire bytes, and the re-cost
// walk under one and under eight machine models. Each reports ns/event, so
// decode + K=8 is what one cached schedule costs a sweep of eight machines.
func BenchmarkRecostAll(b *testing.B) {
	data := recostAllSchedule(b)
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
		ms := recostAllModels(k)
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

// scheduleCounts is what TestScheduleCounts pins of one schedule.
type scheduleCounts struct {
	Events     int            `json:"events"`
	Kinds      map[string]int `json:"kinds"`
	Blocks     int            `json:"blocks"`
	DictEvents int            `json:"dict_events"`
	Refs       int            `json:"refs"`
	Bytes      int            `json:"bytes"`

	// Objects one DecodeBinary of the bytes allocates, and one RecostAll of
	// the decoded schedule under BenchmarkRecostAll's first and eight models.
	DecodeAllocs   float64 `json:"decode_allocs"`
	RecostAllocsK1 float64 `json:"recost_allocs_k1"`
	RecostAllocsK8 float64 `json:"recost_allocs_k8"`
}

// TestScheduleCounts pins how much each schedule holds — events per kind,
// distinct blocks and the events they hold, block references and encoded
// bytes — and the objects its decode and its re-cost at K = 1 and 8
// allocate, for the five pinned fixtures and BenchmarkRecostAll's schedule.
// A change that makes a solve record more, its encoding longer or its
// re-cost allocate more shows here as a diff of testdata/counts.json;
// regenerate it with -update and say why.
func TestScheduleCounts(t *testing.T) {
	got := map[string]scheduleCounts{}
	count := func(name string, data []byte) {
		s, err := replay.DecodeBinary(bytes.Clone(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c := scheduleCounts{Events: s.NumEvents(), Bytes: len(data)}
		c.Kinds, c.Blocks = replay.KindCounts(s)
		c.DictEvents, c.Refs = replay.DictStats(s)
		sum := 0
		for _, n := range c.Kinds {
			sum += n
		}
		if sum != c.Events {
			t.Errorf("%s: the kinds sum to %d events, NumEvents is %d", name, sum, c.Events)
		}
		c.DecodeAllocs = testing.AllocsPerRun(5, func() {
			if _, err := replay.DecodeBinary(data); err != nil {
				t.Fatal(err)
			}
		})
		k1, k8 := recostAllModels(1), recostAllModels(8)
		c.RecostAllocsK1 = testing.AllocsPerRun(5, func() {
			if _, err := s.RecostAll(k1); err != nil {
				t.Fatal(err)
			}
		})
		c.RecostAllocsK8 = testing.AllocsPerRun(5, func() {
			if _, err := s.RecostAll(k8); err != nil {
				t.Fatal(err)
			}
		})
		got[name] = c
	}
	count("recostall-esrp", recostAllSchedule(t))
	for _, fx := range fixtures() {
		data, err := os.ReadFile(filepath.Join(pinnedDir, fx.name+".sched"))
		if err != nil {
			t.Fatal(err)
		}
		count(fx.name, data)
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join("testdata", "counts.json")
	if *update {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if want, err := os.ReadFile(path); err != nil || !bytes.Equal(data, want) {
		t.Fatalf("schedule counts changed (regenerate with -update if intended; %v):\n got %s\nwant %s", err, data, want)
	}
}
