package faultsim

import (
	"reflect"
	"runtime"
	"testing"

	"esrp/internal/core"
)

// checkTimeline asserts the core contract every compiled scenario must meet:
// strictly increasing iterations ≥ 1, contiguous ascending in-range rank
// blocks, never the whole cluster.
func checkTimeline(t *testing.T, events []core.FailureSpec, nodes, horizon int) {
	t.Helper()
	prev := 0
	for i, ev := range events {
		if ev.Iteration < 1 || ev.Iteration > horizon {
			t.Errorf("event %d iteration %d outside [1,%d]", i, ev.Iteration, horizon)
		}
		if i > 0 && ev.Iteration <= prev {
			t.Errorf("event %d iteration %d not after %d", i, ev.Iteration, prev)
		}
		prev = ev.Iteration
		if len(ev.Ranks) == 0 || len(ev.Ranks) >= nodes {
			t.Errorf("event %d has %d ranks on %d nodes", i, len(ev.Ranks), nodes)
		}
		for k, r := range ev.Ranks {
			if r < 0 || r >= nodes {
				t.Errorf("event %d rank %d out of range", i, r)
			}
			if k > 0 && r != ev.Ranks[k-1]+1 {
				t.Errorf("event %d ranks %v not contiguous", i, ev.Ranks)
			}
		}
	}
}

func TestExponentialDeterministic(t *testing.T) {
	sc := Scenario{Model: ModelExponential, Nodes: 16, Horizon: 400, MTBF: 900, Seed: 42}
	a, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed compiled differently:\n%v\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("expected at least one event (16 nodes, horizon 400, MTBF 900)")
	}
	checkTimeline(t, a, sc.Nodes, sc.Horizon)

	sc.Seed = 43
	c, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical timelines")
	}
}

func TestMTBFScalesEventCount(t *testing.T) {
	count := func(mtbf float64) int {
		// Average over seeds so the comparison is about the process rate,
		// not one draw.
		total := 0
		for seed := int64(0); seed < 10; seed++ {
			sc := Scenario{Model: ModelExponential, Nodes: 32, Horizon: 1000, MTBF: mtbf, Seed: seed}
			ev, err := sc.Compile()
			if err != nil {
				t.Fatal(err)
			}
			total += len(ev)
		}
		return total
	}
	frequent, rare := count(2000), count(20000)
	if frequent <= rare {
		t.Fatalf("MTBF 2000 produced %d events, MTBF 20000 produced %d; expected more failures at the shorter MTBF", frequent, rare)
	}
}

func TestWeibullShapes(t *testing.T) {
	for _, shape := range []float64{0.5, 1.0, 3.0} {
		sc := Scenario{Model: ModelWeibull, Nodes: 16, Horizon: 500, MTBF: 700, Shape: shape, Seed: 7}
		ev, err := sc.Compile()
		if err != nil {
			t.Fatalf("shape %g: %v", shape, err)
		}
		checkTimeline(t, ev, sc.Nodes, sc.Horizon)
	}
}

func TestCorrelatedGroups(t *testing.T) {
	sc := Scenario{
		Model: ModelExponential, Nodes: 16, Horizon: 2000, MTBF: 2000,
		GroupSize: 4, GroupProb: 1, Seed: 3,
	}
	ev, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) == 0 {
		t.Fatal("expected events")
	}
	checkTimeline(t, ev, sc.Nodes, sc.Horizon)
	sawBlade := false
	for _, e := range ev {
		if len(e.Ranks) == 4 && e.Ranks[0]%4 == 0 {
			sawBlade = true
		}
	}
	if !sawBlade {
		t.Fatalf("GroupProb=1 produced no aligned 4-wide blade: %v", ev)
	}
}

func TestMaxEventsCap(t *testing.T) {
	sc := Scenario{Model: ModelExponential, Nodes: 32, Horizon: 5000, MTBF: 100, MaxEvents: 3, Seed: 1}
	ev, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 3 {
		t.Fatalf("cap 3 yielded %d events", len(ev))
	}
}

func TestFixedScheduleValidation(t *testing.T) {
	ok := Scenario{Model: ModelFixed, Nodes: 8, Schedule: []core.FailureSpec{
		{Iteration: 30, Ranks: []int{2, 3}},
		{Iteration: 10, Ranks: []int{5}},
	}}
	ev, err := ok.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if ev[0].Iteration != 10 || ev[1].Iteration != 30 {
		t.Fatalf("schedule not sorted: %v", ev)
	}
	checkTimeline(t, ev, 8, 30)

	bad := []Scenario{
		{Model: ModelFixed, Nodes: 8}, // no schedule
		{Model: ModelFixed, Nodes: 8, Schedule: []core.FailureSpec{{Iteration: 0, Ranks: []int{1}}}},                                  // iteration 0
		{Model: ModelFixed, Nodes: 8, Schedule: []core.FailureSpec{{Iteration: 5, Ranks: []int{9}}}},                                  // out of range
		{Model: ModelFixed, Nodes: 8, Schedule: []core.FailureSpec{{Iteration: 5, Ranks: []int{1, 3}}}},                               // gap
		{Model: ModelFixed, Nodes: 8, Schedule: []core.FailureSpec{{Iteration: 5, Ranks: []int{1}}, {Iteration: 5, Ranks: []int{2}}}}, // same iter
		{Model: ModelFixed, Nodes: 4, Schedule: []core.FailureSpec{{Iteration: 5, Ranks: []int{0, 1, 2, 3}}}},                         // whole cluster
	}
	for i, sc := range bad {
		if _, err := sc.Compile(); err == nil {
			t.Errorf("bad schedule %d accepted", i)
		}
	}
}

func TestScenarioParamValidation(t *testing.T) {
	bad := []Scenario{
		{Model: ModelExponential, Nodes: 1, Horizon: 10, MTBF: 5},                // too few nodes
		{Model: ModelExponential, Nodes: 8, Horizon: 0, MTBF: 5},                 // no horizon
		{Model: ModelExponential, Nodes: 8, Horizon: 10, MTBF: 0},                // no MTBF
		{Model: ModelWeibull, Nodes: 8, Horizon: 10, MTBF: 5, Shape: -1},         // bad shape
		{Model: ModelExponential, Nodes: 8, Horizon: 10, MTBF: 5, GroupSize: 8},  // blade = cluster
		{Model: ModelExponential, Nodes: 8, Horizon: 10, MTBF: 5, GroupProb: 2},  // bad prob
		{Model: ModelExponential, Nodes: 8, Horizon: 10, MTBF: 5, MaxEvents: -1}, // bad cap
	}
	for i, sc := range bad {
		if _, err := sc.Compile(); err == nil {
			t.Errorf("bad scenario %d accepted", i)
		}
	}
}

func TestParseModel(t *testing.T) {
	for name, want := range map[string]Model{
		"fixed": ModelFixed, "exp": ModelExponential, "poisson": ModelExponential, "weibull": ModelWeibull,
	} {
		got, err := ParseModel(name)
		if err != nil || got != want {
			t.Errorf("ParseModel(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseModel("nope"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestParseSchedule(t *testing.T) {
	ev, err := ParseSchedule("20:2-3;50:5", 8)
	if err != nil {
		t.Fatal(err)
	}
	want := []core.FailureSpec{{Iteration: 20, Ranks: []int{2, 3}}, {Iteration: 50, Ranks: []int{5}}}
	if !reflect.DeepEqual(ev, want) {
		t.Fatalf("ParseSchedule = %+v, want %+v", ev, want)
	}
	if _, err := ParseSchedule("50:7", 8); err != nil {
		t.Errorf("top rank of an 8-node cluster refused: %v", err)
	}
	for _, bad := range []string{"", "20", "x:1", "20:a", "20:5-3", "50:8", "50:6-8", "50:3;60:9"} {
		if _, err := ParseSchedule(bad, 8); err == nil {
			t.Errorf("schedule %q accepted on 8 nodes", bad)
		}
	}
}

// A range reaching far past the cluster fails before it is expanded: it
// used to append two billion ranks, or never end where r++ wraps.
func TestParseScheduleHostileRange(t *testing.T) {
	for _, s := range []string{"1:0-2000000000", "1:0-9223372036854775807", "1:9223372036854775807"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ParseSchedule(s, 8)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("schedule %q accepted on 8 nodes", s)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("schedule %q allocated %d bytes", s, n)
		}
	}
}

// ParseSchedule returns an error or a schedule of contiguous ascending rank
// blocks below nodes, each allocated at no more than nodes ints; it never
// panics. The seeds are the -events spellings of the CI smokes and the
// verify recipes, on their clusters, and the hostile ranges.
func FuzzParseSchedule(f *testing.F) {
	for _, seed := range []struct {
		events string
		nodes  uint16
	}{
		{"50:5-6", 12}, {"35:4", 8}, {"50:3", 8}, {"50:0", 8}, {"5:1", 4},
		{"12:2", 4}, {"12:1-2", 4}, {"2:1", 2}, {"20:3;45:5;70:2", 8},
		{"20:2-3", 8}, {"20:1", 8}, {"10:1-2;20:3", 4}, {"bogus", 8}, {"5:x", 8},
		{"1:0-2000000000", 8}, {"1:0-9223372036854775807", 8},
	} {
		f.Add(seed.events, seed.nodes)
	}
	f.Fuzz(func(t *testing.T, s string, n uint16) {
		nodes := int(n % 1025)
		events, err := ParseSchedule(s, nodes)
		if err != nil {
			return
		}
		if len(events) == 0 {
			t.Fatalf("ParseSchedule(%q, %d) returned no events and no error", s, nodes)
		}
		for i, ev := range events {
			if len(ev.Ranks) == 0 || cap(ev.Ranks) > nodes {
				t.Fatalf("ParseSchedule(%q, %d): event %d holds %d ranks in %d slots", s, nodes, i, len(ev.Ranks), cap(ev.Ranks))
			}
			for k, r := range ev.Ranks {
				if r < 0 || r >= nodes || (k > 0 && r != ev.Ranks[k-1]+1) {
					t.Fatalf("ParseSchedule(%q, %d): event %d ranks %v not a contiguous block below %d", s, nodes, i, ev.Ranks, nodes)
				}
			}
		}
	})
}
