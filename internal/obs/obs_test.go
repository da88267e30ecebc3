package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestKindTables(t *testing.T) {
	cats := map[string]bool{"compute": true, "comm": true, "resilience": true}
	for k := Kind(0); k < kindCount; k++ {
		if k.String() == "unknown" || k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
		if !cats[k.Category()] {
			t.Errorf("kind %v has unknown category %q", k, k.Category())
		}
	}
	if Kind(200).String() != "unknown" || Kind(200).Category() != "unknown" {
		t.Error("out-of-range kind must map to unknown")
	}
	if KindRecovery.Leaf() {
		t.Error("the recovery envelope must not count as a leaf")
	}
	if !KindVec.Leaf() || !KindAllreduce.Leaf() {
		t.Error("ordinary kinds must be leaves")
	}
}

func TestNilSafety(t *testing.T) {
	var opts *Options
	if opts.Enabled() {
		t.Error("nil Options must report disabled")
	}
	if (&Options{}).Enabled() {
		t.Error("zero Options must report disabled")
	}
	if !(&Options{Trace: true}).Enabled() || !(&Options{Series: true}).Enabled() {
		t.Error("set Options must report enabled")
	}

	// A builder keeps only what its options ask for.
	b := NewBuilder(Options{}, 1)
	b.Span(0, Span{Kind: KindVec, Start: 0, End: 1})
	b.Envelope(0, 2, 0, 1)
	b.Point(0, IterPoint{Clock: 0.5})
	if tr := b.Build(1); len(tr.Ranks[0]) != 0 || len(tr.Envelopes[0]) != 0 || len(tr.Series) != 0 {
		t.Errorf("zero Options kept %+v", tr)
	}
}

func TestSpanCoalescing(t *testing.T) {
	b := NewBuilder(Options{Trace: true}, 1)
	span := func(kind Kind, iter int, start, end float64) {
		b.Span(0, Span{Kind: kind, Iter: iter, Start: start, End: end})
	}
	span(KindVec, 7, 0, 1)
	span(KindVec, 7, 1, 2)                                                          // abuts with same attribution: coalesce
	span(KindVec, 7, 2, 2)                                                          // zero-length: dropped
	span(KindPrecond, 7, 2, 3)                                                      // different kind: new span
	span(KindVec, 7, 4, 5)                                                          // gap: new span
	span(KindVec, 8, 5, 6)                                                          // abuts but different iter: new span
	b.Span(0, Span{Kind: KindVec, Phase: PhaseRecovery, Iter: 8, Start: 6, End: 7}) // different phase: new span

	tr := b.Build(7)
	spans := tr.Ranks[0]
	want := []Span{
		{Kind: KindVec, Iter: 7, Start: 0, End: 2},
		{Kind: KindPrecond, Iter: 7, Start: 2, End: 3},
		{Kind: KindVec, Iter: 7, Start: 4, End: 5},
		{Kind: KindVec, Iter: 8, Start: 5, End: 6},
		{Kind: KindVec, Phase: PhaseRecovery, Iter: 8, Start: 6, End: 7},
	}
	if len(spans) != len(want) {
		t.Fatalf("got %d spans, want %d: %+v", len(spans), len(want), spans)
	}
	for i, s := range spans {
		if s != want[i] {
			t.Errorf("span %d: got %+v, want %+v", i, s, want[i])
		}
	}
}

func TestMarkWasted(t *testing.T) {
	b := NewBuilder(Options{Series: true}, 1)
	// Iterations 0,1,2 then a rollback to 1: steps at iters 1 and 2 before
	// the rollback are re-run, so they are wasted.
	for step, iter := range []int{0, 1, 2, 1, 2, 3} {
		b.Point(0, IterPoint{Step: step, Iter: iter, RelRes: 1e-3, Clock: float64(step)})
	}
	tr := b.Build(6)
	want := []bool{false, true, true, false, false, false}
	for i, p := range tr.Series {
		if p.Wasted != want[i] {
			t.Errorf("point %d (iter %d): wasted=%v, want %v", i, p.Iter, p.Wasted, want[i])
		}
	}
}

func TestRecoveryStatsAndCoverage(t *testing.T) {
	b := NewBuilder(Options{Trace: true}, 2)
	b.Span(0, Span{Kind: KindVec, Start: 0, End: 6})
	b.Envelope(0, 10, 6, 9)
	b.Envelope(0, 11, 9, 9) // zero-length: dropped
	b.Span(0, Span{Kind: KindRecoverGather, Phase: PhaseRecovery, Start: 6, End: 9})
	b.Span(0, Span{Kind: KindVec, Start: 9, End: 10})
	b.Span(1, Span{Kind: KindVec, Start: 0, End: 4})
	b.Envelope(1, 10, 6, 8)

	tr := b.Build(10)
	if want := (Span{Kind: KindRecovery, Phase: PhaseRecovery, Iter: 10, Start: 6, End: 9}); len(tr.Envelopes[0]) != 1 || tr.Envelopes[0][0] != want {
		t.Errorf("rank 0 envelopes %+v, want [%+v]", tr.Envelopes[0], want)
	}
	stats := tr.RecoveryStats()
	if len(stats) != 1 {
		t.Fatalf("got %d recovery stats, want 1", len(stats))
	}
	if st := stats[0]; st.Iter != 10 || st.Time != 3 || st.Ranks != 2 {
		t.Errorf("stat = %+v, want Iter 10, Time 3, Ranks 2", st)
	}

	// Rank 0's leaves tile [0,10) and rank 1's [0,4): the latest end is
	// SimTime. A span-less stretch at the end of rank 0 is a gap.
	if err := tr.CheckTiling(); err != nil {
		t.Error(err)
	}
	tr.SimTime = 11
	if tr.CheckTiling() == nil {
		t.Error("spans ending at 10 tile a timeline of 11")
	}
}

func TestWriteChromeDeterministicAndValid(t *testing.T) {
	build := func() *bytes.Buffer {
		b := NewBuilder(Options{Trace: true, Series: true}, 2)
		b.Span(0, Span{Kind: KindVec, Start: 0, End: 1})
		b.Span(0, Span{Kind: KindAllreduce, Start: 1, End: 2})
		b.Point(0, IterPoint{RelRes: 1e-3, Clock: 2, Bytes: 64, Msgs: 1})
		b.Envelope(0, 0, 2, 3)
		b.Span(1, Span{Kind: KindPrecond, Start: 0, End: 2})
		tr := b.Build(3)
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	a, b := build(), build()
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteChrome is not byte-deterministic for identical traces")
	}
	if err := ValidateChromeTrace(a.Bytes()); err != nil {
		t.Fatalf("emitted trace fails validation: %v", err)
	}
	for _, name := range []string{"vec", "allreduce", "precond", "recovery", "relres", "thread_name"} {
		if !strings.Contains(a.String(), `"`+name+`"`) {
			t.Errorf("trace JSON lacks %q event", name)
		}
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	bad := []string{
		`not json`,
		`{"traceEvents":[]}`,
		`{"traceEvents":[{"ph":"X","ts":0,"dur":1,"tid":0}]}`,     // no name
		`{"traceEvents":[{"name":"x","ph":"Z"}]}`,                 // unknown phase
		`{"traceEvents":[{"name":"x","ph":"X","dur":1,"tid":0}]}`, // no ts
		`{"traceEvents":[{"name":"x","ph":"X","ts":-1,"dur":1}]}`, // negative ts
		`{"traceEvents":[{"name":"bogus_meta","ph":"M"}]}`,        // unknown metadata
		`{"traceEvents":[{"name":"x","ph":"X","ts":0,"dur":1}]}`,  // no tid
		`{"traceEvents":[{"name":"relres","ph":"C"}]}`,            // counter without ts
	}
	for _, s := range bad {
		if err := ValidateChromeTrace([]byte(s)); err == nil {
			t.Errorf("validator accepted %s", s)
		}
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	b := NewBuilder(Options{Series: true}, 1)
	b.Point(0, IterPoint{Step: 0, Iter: 0, RelRes: 1e-1, Clock: 1.0, Bytes: 100, Msgs: 2})
	b.Point(0, IterPoint{Step: 1, Iter: 1, RelRes: 1e-2, Clock: 2.5, Bytes: 250, Msgs: 5})
	tr := b.Build(2.5)
	var buf bytes.Buffer
	if err := tr.WriteSeriesCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d CSV lines, want header + 2 rows:\n%s", len(lines), buf.String())
	}
	if lines[0] != "step,iter,relres,clock,clock_delta,bytes,bytes_delta,msgs,msgs_delta,wasted" {
		t.Errorf("bad header: %s", lines[0])
	}
	if lines[2] != "1,1,0.01,2.5,1.5,250,150,5,3,0" {
		t.Errorf("bad delta row: %s", lines[2])
	}
}

func TestTotals(t *testing.T) {
	b := NewBuilder(Options{Trace: true}, 2)
	b.Span(0, Span{Kind: KindVec, Start: 0, End: 2})
	b.Span(1, Span{Kind: KindVec, Start: 0, End: 1})
	b.Span(1, Span{Kind: KindSpMV, Start: 1, End: 4})
	tr := b.Build(4)
	tot := tr.Totals()
	if tot[KindVec] != 3 || tot[KindSpMV] != 3 {
		t.Errorf("totals = %v, want vec 3, spmv 3", tot)
	}
}

func TestCurrentBuild(t *testing.T) {
	b := CurrentBuild()
	if b.GoVersion == "" {
		t.Error("CurrentBuild must report the Go version")
	}
}
