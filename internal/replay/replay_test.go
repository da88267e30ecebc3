package replay_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"esrp/internal/cluster"
	"esrp/internal/core"
	"esrp/internal/matgen"
	"esrp/internal/replay"
)

var update = flag.Bool("update", false, "rewrite the committed FuzzDecodeBinary seed corpus from this build's recorder")

// fixture is one (strategy, failure timeline) shape. Every solve runs to a
// fixed iteration count (Rtol is unreachable), so a fixture's event count
// scales with iters and nothing else.
type fixture struct {
	name string
	cfg  func(iters int) core.Config
}

func fixtures() []fixture {
	a := matgen.Poisson2D(6, 6)
	b := matgen.RHSOnes(a.Rows)
	mk := func(name string, mut func(*core.Config)) fixture {
		return fixture{name, func(iters int) core.Config {
			cfg := core.Config{A: a, B: b, Nodes: 4, Rtol: 1e-30, MaxIter: iters, DetectionTime: 2e-5}
			mut(&cfg)
			return cfg
		}}
	}
	return []fixture{
		mk("none", func(c *core.Config) {
			c.Strategy = core.StrategyNone
			c.Failures = []core.FailureSpec{{Iteration: 3, Ranks: []int{2}}}
		}),
		mk("esr", func(c *core.Config) {
			c.Strategy, c.Phi = core.StrategyESR, 1
			c.Failures = []core.FailureSpec{{Iteration: 3, Ranks: []int{1}}}
		}),
		mk("esrp", func(c *core.Config) {
			c.Strategy, c.T, c.Phi = core.StrategyESRP, 3, 1
			c.Failures = []core.FailureSpec{{Iteration: 3, Ranks: []int{1}}, {Iteration: 6, Ranks: []int{3}}}
		}),
		mk("imcr", func(c *core.Config) {
			c.Strategy, c.T, c.Phi = core.StrategyIMCR, 3, 1
			c.Failures = []core.FailureSpec{{Iteration: 3, Ranks: []int{2}}}
		}),
		// One spare: the first failure consumes it, the second shrinks the
		// cluster — sub-communicator views, and collectives of one view that
		// are in flight several at a time.
		mk("shrink", func(c *core.Config) {
			c.Strategy, c.T, c.Phi, c.Spares = core.StrategyESRP, 3, 1, 1
			c.Failures = []core.FailureSpec{{Iteration: 3, Ranks: []int{1}}, {Iteration: 6, Ranks: []int{2}}}
		}),
	}
}

const shortIters = 8 // past the last failure of every fixture

func record(t testing.TB, fx fixture, iters int) (*core.Result, *replay.Schedule) {
	t.Helper()
	cfg := fx.cfg(iters)
	rec := replay.NewRecorder()
	cfg.Record = rec
	res, err := core.Solve(cfg)
	if err != nil {
		t.Fatalf("%s: solve: %v", fx.name, err)
	}
	if len(res.Events) != len(cfg.Failures) {
		t.Fatalf("%s: %d of %d failures struck; the fixture is vacuous", fx.name, len(res.Events), len(cfg.Failures))
	}
	return res, rec.Schedule()
}

// randomModels draws k machine points spread over two decades around the
// default, then overwrites the last with a copy of the first when k > 1 so
// every batch carries a duplicate.
func randomModels(rng *rand.Rand, k int) []replay.CostModel {
	d := cluster.DefaultCostModel()
	scale := func() float64 { return math.Pow(10, 2*rng.Float64()-1) }
	ms := make([]replay.CostModel, k)
	for i := range ms {
		ms[i] = replay.CostModel{
			FlopTime: d.FlopTime * scale(), Latency: d.Latency * scale(),
			BytePeriod: d.BytePeriod * scale(), Overhead: d.Overhead * scale(),
		}
	}
	if k > 1 {
		ms[k-1] = ms[0]
	}
	return ms
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// diffReplayed names the first field in which two replays differ bit-wise
// ("" when none does); NaNs a hostile schedule produces compare by bits.
func diffReplayed(a, b *replay.Replayed) string {
	switch {
	case math.Float64bits(a.SimTime) != math.Float64bits(b.SimTime):
		return fmt.Sprintf("SimTime %.17g vs %.17g", a.SimTime, b.SimTime)
	case math.Float64bits(a.RecoveryTime) != math.Float64bits(b.RecoveryTime):
		return fmt.Sprintf("RecoveryTime %.17g vs %.17g", a.RecoveryTime, b.RecoveryTime)
	case a.BytesSent != b.BytesSent || a.MsgsSent != b.MsgsSent:
		return fmt.Sprintf("traffic %d/%d vs %d/%d", a.BytesSent, a.MsgsSent, b.BytesSent, b.MsgsSent)
	case a.Events != b.Events:
		return fmt.Sprintf("Events %d vs %d", a.Events, b.Events)
	case !sameFloats(a.Clocks, b.Clocks):
		return fmt.Sprintf("Clocks %v vs %v", a.Clocks, b.Clocks)
	case len(a.Envelopes) != len(b.Envelopes):
		return fmt.Sprintf("Envelopes of %d vs %d ranks", len(a.Envelopes), len(b.Envelopes))
	}
	for g := range a.Envelopes {
		ea, eb := a.Envelopes[g], b.Envelopes[g]
		if len(ea) != len(eb) {
			return fmt.Sprintf("rank %d: %d vs %d envelopes", g, len(ea), len(eb))
		}
		for i := range ea {
			if ea[i].Iter != eb[i].Iter || !sameFloats([]float64{ea[i].Start, ea[i].End}, []float64{eb[i].Start, eb[i].End}) {
				return fmt.Sprintf("rank %d envelope %d: %+v vs %+v", g, i, ea[i], eb[i])
			}
		}
	}
	return ""
}

// The batched walk against two oracles: the K = 1 call, field by field,
// and — since a recorded solve's control flow is machine-independent — a
// live solve under each randomized model.
func TestRecostAllMatchesRecostAndLiveSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, fx := range fixtures() {
		_, sched := record(t, fx, shortIters)
		for _, k := range []int{0, 1, 8} {
			ms := randomModels(rng, k)
			reps, err := sched.RecostAll(ms)
			if err != nil {
				t.Fatalf("%s K=%d: %v", fx.name, k, err)
			}
			if reps == nil || len(reps) != k {
				t.Fatalf("%s K=%d: got %d results (nil: %v)", fx.name, k, len(reps), reps == nil)
			}
			for j, m := range ms {
				one, err := sched.Recost(m)
				if err != nil {
					t.Fatal(err)
				}
				if d := diffReplayed(reps[j], one); d != "" {
					t.Errorf("%s K=%d: RecostAll[%d] != Recost: %s", fx.name, k, j, d)
				}
				if j > 2 {
					continue // three live solves per batch are oracle enough
				}
				cfg := fx.cfg(shortIters)
				cm := cluster.CostModel(m)
				cfg.CostModel = &cm
				live, err := core.Solve(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if reps[j].SimTime != live.SimTime || reps[j].RecoveryTime != live.RecoveryTime ||
					reps[j].BytesSent != live.BytesSent || reps[j].MsgsSent != live.MsgsSent {
					t.Errorf("%s K=%d model %d: replay {%.17g %.17g %d %d}, live solve {%.17g %.17g %d %d}", fx.name, k, j,
						reps[j].SimTime, reps[j].RecoveryTime, reps[j].BytesSent, reps[j].MsgsSent,
						live.SimTime, live.RecoveryTime, live.BytesSent, live.MsgsSent)
				}
			}
			if k > 1 {
				if d := diffReplayed(reps[0], reps[k-1]); d != "" {
					t.Errorf("%s: duplicate models replay differently: %s", fx.name, d)
				}
			}
		}
	}
}

// A root that broadcasts five times before any other member arrives, then
// non-roots that finish five gathers before the root's first: the view's
// instance FIFO runs five deep and retires from the front while the back is
// still in flight. The expected clocks are the collectives' scalar
// formulas, written out per model.
func TestDeepInstanceFIFOOfOneView(t *testing.T) {
	const rounds, steps = 1.0, 5 // ⌈log₂ 2⌉
	bytes := func(i int) int64 { return int64(100 * (i + 1)) }
	events := make([][]replay.Event, 2)
	flops := []float64{3e3, 9e3}
	for g := range events {
		evs := []replay.Event{{Kind: replay.KindCompute, Val: flops[g]}}
		for i := 0; i < steps; i++ {
			evs = append(evs, replay.Event{Kind: replay.KindBcast, Root: g == 0, Bytes: bytes(i)})
		}
		for i := 0; i < steps; i++ {
			evs = append(evs, replay.Event{Kind: replay.KindGather, Root: g == 0, Bytes: bytes(i) * int64(g)})
		}
		events[g] = evs
	}
	s, err := replay.NewSchedule(2, [][]int{{0, 1}}, events)
	if err != nil {
		t.Fatal(err)
	}
	ms := randomModels(rand.New(rand.NewSource(9)), 2)
	reps, err := s.RecostAll(ms)
	if err != nil {
		t.Fatal(err)
	}
	for j, m := range ms {
		c0, c1 := flops[0]*m.FlopTime, flops[1]*m.FlopTime
		for i := 0; i < steps; i++ {
			cost := rounds * (m.Latency + m.Overhead + float64(bytes(i))*m.BytePeriod)
			c1 = math.Max(c0, c1) + cost
			c0 += cost
		}
		for i := 0; i < steps; i++ {
			c0 = math.Max(c0, c1) + m.Latency*rounds + float64(bytes(i))*m.BytePeriod
			c1 += m.Overhead
		}
		if !sameFloats(reps[j].Clocks, []float64{c0, c1}) {
			t.Errorf("model %d: clocks %v, want [%v %v]", j, reps[j].Clocks, c0, c1)
		}
	}
}

// Arenas are created in whatever order the ranks reach them, so view ids
// differ from run to run; the schedule's bytes do not. The same events
// recorded against views registered in three different orders — the first
// already canonical, the others not — freeze to one encoding.
func TestScheduleIsIndependentOfViewRegistrationOrder(t *testing.T) {
	views := [][]int{{0, 1, 2}, {0, 2}, {1, 2}} // in canonical order
	var want []byte
	for _, order := range [][]int{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}} {
		rec := replay.NewRecorder()
		rec.Init(3)
		ids := make([]int32, len(views))
		for _, v := range order {
			ids[v] = rec.RegisterView(views[v])
		}
		for g := 0; g < 3; g++ {
			r := rec.Rank(g)
			r.Compute(float64(100 * (g + 1)))
			for v, members := range views {
				if slices.Contains(members, g) {
					r.Collective(replay.KindAllreduce, ids[v], 8, 2, 16, false)
					r.Collective(replay.KindBcast, ids[v], 300, 1, 300, g == members[0])
					r.RecStart()
				}
			}
		}
		s := rec.Schedule()
		got, err := s.EncodeBinary()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		}
		if !bytes.Equal(got, want) || !reflect.DeepEqual(s.Views, views) {
			t.Errorf("views registered in order %v: views %v, %d bytes that differ from the canonical order's", order, s.Views, len(got))
		}
		if _, err := s.Recost(cluster.DefaultCostModel()); err != nil {
			t.Errorf("views registered in order %v: %v", order, err)
		}
	}
}

// Every serialization re-costs to the recorded schedule's exact figures, and
// re-encoding what was read back reproduces the bytes — through JSON too:
// WriteJSON → ReadJSON → EncodeBinary is the original encoding.
func TestRoundTripsRecostIdentically(t *testing.T) {
	ms := randomModels(rand.New(rand.NewSource(5)), 3)
	for _, fx := range fixtures() {
		_, sched := record(t, fx, shortIters)
		want, err := sched.RecostAll(ms)
		if err != nil {
			t.Fatal(err)
		}
		data, err := sched.EncodeBinary()
		if err != nil {
			t.Fatal(err)
		}
		var js bytes.Buffer
		if err := sched.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		decoders := map[string]func() (*replay.Schedule, error){
			"DecodeBinary": func() (*replay.Schedule, error) { return replay.DecodeBinary(bytes.Clone(data)) },
			"ReadBinary":   func() (*replay.Schedule, error) { return replay.ReadBinary(bytes.NewReader(data)) },
			"ReadJSON":     func() (*replay.Schedule, error) { return replay.ReadJSON(&js) },
		}
		for name, decode := range decoders {
			got, err := decode()
			if err != nil {
				t.Fatalf("%s %s: %v", fx.name, name, err)
			}
			again, err := got.EncodeBinary()
			if err != nil || !bytes.Equal(again, data) {
				t.Errorf("%s %s: re-encoding differs from the original bytes (err %v)", fx.name, name, err)
			}
			reps, err := got.RecostAll(ms)
			if err != nil {
				t.Fatalf("%s %s: %v", fx.name, name, err)
			}
			for j := range reps {
				if d := diffReplayed(reps[j], want[j]); d != "" {
					t.Errorf("%s %s model %d: %s", fx.name, name, j, d)
				}
			}
		}
	}
}

// RecostAll's allocations are set-up plus pooled state: bounded by ranks,
// views and K, however many events the schedule holds. DecodeBinary makes
// one slice per view and a handful of tables.
func TestAllocationGates(t *testing.T) {
	ms := randomModels(rand.New(rand.NewSource(7)), 8)
	for _, fx := range fixtures() {
		for _, iters := range []int{shortIters, 6 * shortIters} {
			_, sched := record(t, fx, iters)
			data, err := sched.EncodeBinary()
			if err != nil {
				t.Fatal(err)
			}
			size := sched.Nodes + len(sched.Views)
			recost := testing.AllocsPerRun(5, func() {
				if _, err := sched.RecostAll(ms); err != nil {
					t.Fatal(err)
				}
			})
			if limit := float64(32 + 4*len(ms) + 8*size); recost > limit {
				t.Errorf("%s, %d events: RecostAll allocates %.0f times, gate %.0f", fx.name, sched.NumEvents(), recost, limit)
			}
			decode := testing.AllocsPerRun(5, func() {
				if _, err := replay.DecodeBinary(data); err != nil {
					t.Fatal(err)
				}
			})
			if limit := float64(8 + size); decode > limit {
				t.Errorf("%s, %d events: DecodeBinary allocates %.0f times, gate %.0f", fx.name, sched.NumEvents(), decode, limit)
			}
		}
	}
}

// payload builds an input: the magic followed by each value as a varint.
func payload(vals ...uint64) []byte {
	out := []byte("ESRPRPL1")
	for _, v := range vals {
		for ; v >= 0x80; v >>= 7 {
			out = append(out, byte(v)|0x80)
		}
		out = append(out, byte(v))
	}
	return out
}

// hostilePayloads are inputs whose length fields announce far more than the
// bytes that follow could hold, or whose views name ranks that do not exist.
func hostilePayloads() map[string][]byte {
	return map[string][]byte{
		"events-2^32":      payload(1, 0, 1<<32), // the 15-byte input that asked for 206 GB
		"events-2^31":      payload(1, 0, 1<<31),
		"nodes-2^24":       payload(1<<24, 0), // passed the old "sane" guard: 400 MB of slice headers
		"views-2^24":       payload(1, 1<<24),
		"members-2^20":     payload(1<<20, 1, 1<<20),      // one view as wide as a node count no input backs
		"member-past-end":  payload(2, 1, 2, 0, 1, 0, 0),  // view [0, 2] on 2 nodes
		"member-overflow":  payload(2, 1, 2, 1, 1<<63, 0), // delta that wraps int
		"varint-overflow":  append(payload(), bytes.Repeat([]byte{0xff}, 11)...),
		"zero-nodes":       payload(0, 0),
		"unknown-kind":     payload(1, 0, 1, 99),
		"truncated-float":  append(payload(1, 0, 1), byte(replay.KindCompute), 1, 2, 3),
		"truncated-header": []byte("ESRPRP"),
		"bad-magic":        []byte("ESRPCCF1........"),
		// Fields wider than the Event they decode into: rank 0 sends 8 bytes
		// to peer 2³²+1, which used to wrap to peer 1 and re-cost cleanly.
		"peer-2^32+1": payload(2, 0, 1, uint64(replay.KindSend), 1<<32+1, 8, 1, uint64(replay.KindRecv), 0),
		"view-2^32":   payload(1, 1, 1, 0, 1, uint64(replay.KindAllreduce), 0, 1<<32, 8, 0, 0),
		"bytes-2^63":  payload(2, 0, 1, uint64(replay.KindSend), 1, 1<<63, 1, uint64(replay.KindRecv), 0),
		// One schedule, one encoding: nothing after the last rank, no padded
		// varints, a root flag of 0 or 1.
		"trailing-bytes": append(payload(1, 0, 1, uint64(replay.KindRTFinal)), 0xde, 0xad, 0xbe, 0xef),
		"padded-varint":  append([]byte("ESRPRPL1"), 0x81, 0x00, 0, 0),
		"root-flag-2":    payload(1, 1, 1, 0, 1, uint64(replay.KindBcast), 2, 0, 8, 0, 0),
	}
}

// Hostile length fields are errors, and cost no more memory than the input
// is long — the 15-byte case used to die with "fatal error: out of memory".
func TestDecodeRejectsHostileCounts(t *testing.T) {
	for name, data := range hostilePayloads() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := replay.DecodeBinary(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded to %d nodes, %d events; want an error", name, s.Nodes, s.NumEvents())
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("%s: rejecting %d bytes allocated %d", name, len(data), grew)
		}
		if _, rerr := replay.ReadBinary(bytes.NewReader(data)); rerr == nil {
			t.Errorf("%s: ReadBinary accepted what DecodeBinary rejects", name)
		}
	}
}

// Kind 3 was a clock sync that no solve ever recorded. Its value stays
// reserved, so no later kind is renumbered, and a stream carrying it is
// rejected by the decoder and by NewSchedule alike.
func TestReservedKindIsRejected(t *testing.T) {
	const reserved = 3
	val := binary.LittleEndian.AppendUint64(nil, math.Float64bits(1.5))
	data := append(payload(1, 0, 2, reserved), val...)
	data = append(data, byte(replay.KindRTFinal))
	if s, err := replay.DecodeBinary(data); err == nil || !strings.Contains(err.Error(), "unknown event kind 3") {
		t.Fatalf("DecodeBinary: got %v, %v; want the unknown event kind 3 error", s, err)
	}
	events := [][]replay.Event{{{Kind: reserved, Val: 1.5}, {Kind: replay.KindRTFinal}}}
	if _, err := replay.NewSchedule(1, nil, events); err == nil || !strings.Contains(err.Error(), "unknown event kind 3") {
		t.Fatalf("NewSchedule: got %v, want the unknown event kind 3 error", err)
	}
}

// What NewSchedule is handed is validated like what DecodeBinary reads:
// peers, views, member ranks and counts that would index out of range or
// have no wire encoding are the constructor's errors; what only a replay can
// find — a rank outside the view it names, a stream cut short — is
// RecostAll's, with its "stuck" diagnostic, and fails the same after a trip
// through the wire.
func TestRecostHostileSchedulesError(t *testing.T) {
	_, good := record(t, fixtures()[2], shortIters)
	type parts struct {
		nodes  int
		views  [][]int
		events [][]replay.Event
	}
	mutate := func(f func(p *parts)) parts {
		p := parts{good.Nodes, append([][]int(nil), good.Views...), make([][]replay.Event, good.Nodes)}
		for g := range p.events {
			p.events[g] = good.Events(g)
		}
		f(&p)
		return p
	}
	firstOf := func(p *parts, kinds ...replay.Kind) *replay.Event {
		for i := range p.events[1] {
			for _, k := range kinds {
				if p.events[1][i].Kind == k {
					return &p.events[1][i]
				}
			}
		}
		t.Fatalf("fixture has no %v event on rank 1", kinds)
		return nil
	}
	cases := map[string]struct {
		p    parts
		want string
	}{
		"send-peer-high": {mutate(func(p *parts) { firstOf(p, replay.KindSend).Peer = 4 }), "peer 4 out of range"},
		"recv-peer-neg":  {mutate(func(p *parts) { firstOf(p, replay.KindRecv).Peer = -1 }), "negative peer"},
		"send-bytes-neg": {mutate(func(p *parts) { firstOf(p, replay.KindSend).Bytes = -8 }), "negative peer, view or byte count"},
		"acct-bytes-neg": {mutate(func(p *parts) { firstOf(p, replay.KindAllreduce).AcctBytes = -8 }), "negative peer, view or byte count"},
		"view-high":      {mutate(func(p *parts) { firstOf(p, replay.KindAllreduce).View = int32(len(p.views)) }), "out of range"},
		"view-neg":       {mutate(func(p *parts) { firstOf(p, replay.KindAllreduce).View = -7 }), "negative peer, view"},
		"non-member": {mutate(func(p *parts) {
			p.views = append(p.views, []int{0, 2})
			firstOf(p, replay.KindAllreduce).View = int32(len(p.views) - 1)
		}), "not a member"},
		"member-past-nodes": {mutate(func(p *parts) { p.views[0] = []int{0, 1, 2, 9} }), "not an ascending list"},
		"members-unsorted":  {mutate(func(p *parts) { p.views[0] = []int{0, 2, 1, 3} }), "not an ascending list"},
		"nodes-past-events": {mutate(func(p *parts) { p.nodes = 6 }), "6 nodes but carries 4"},
		"nodes-negative":    {mutate(func(p *parts) { p.nodes = -1 }), "-1 nodes"},
		"unknown-kind":      {mutate(func(p *parts) { firstOf(p, replay.KindCompute).Kind = 200 }), "unknown event kind"},
		"recv-never-sent": {mutate(func(p *parts) {
			p.events[0] = append([]replay.Event{{Kind: replay.KindRecv, Peer: 0}}, p.events[0]...)
		}), "stuck: rank 0 at event 0 (recv)"},
		"truncated": {mutate(func(p *parts) { p.events[3] = p.events[3][:len(p.events[3])/2] }), "no progress (truncated or inconsistent schedule); stuck:"},
	}
	ms := randomModels(rand.New(rand.NewSource(3)), 2)
	for name, c := range cases {
		s, err := replay.NewSchedule(c.p.nodes, c.p.views, c.p.events)
		if err == nil {
			var reps []*replay.Replayed
			if reps, err = s.RecostAll(ms); err == nil {
				t.Errorf("%s: re-costs to %d results, want an error containing %q", name, len(reps), c.want)
				continue
			}
			data, _ := s.EncodeBinary()
			if dec, derr := replay.DecodeBinary(data); derr != nil {
				t.Errorf("%s: NewSchedule accepts what DecodeBinary rejects: %v", name, derr)
			} else if _, err := dec.Recost(ms[0]); err == nil {
				t.Errorf("%s: the decoded schedule re-costs without error", name)
			}
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", name, err, c.want)
		}
	}

	// Nodes and Views stay exported: what a caller does to them after the
	// scan is caught when the re-coster sizes its state, or at the event.
	after := map[string]struct {
		f    func(s *replay.Schedule)
		want string
	}{
		"nodes":   {func(s *replay.Schedule) { s.Nodes = 6 }, "6 nodes but carries 4"},
		"members": {func(s *replay.Schedule) { s.Views[0] = []int{0, 1, 2, 9} }, "not an ascending list"},
		"views":   {func(s *replay.Schedule) { s.Views = nil }, "view 0 out of range"},
	}
	for name, c := range after {
		p := mutate(func(*parts) {})
		s, err := replay.NewSchedule(p.nodes, p.views, p.events)
		if err != nil {
			t.Fatal(err)
		}
		c.f(s)
		if _, err := s.RecostAll(ms); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s changed after construction: got %v, want an error containing %q", name, err, c.want)
		}
	}

	for _, js := range []string{
		`{"nodes":2,"views":[[0,5]],"events":[[{"k":6,"view":0}],[]]}`, // a view member past the node count
		`{"nodes":2,"views":[],"events":[[{"k":5,"peer":-1}],[]]}`,
		`{"nodes":2,"views":[],"events":[[{"k":4,"peer":1,"bytes":-8}],[{"k":5}]]}`,
	} {
		if s, err := replay.ReadJSON(strings.NewReader(js)); err == nil {
			t.Errorf("ReadJSON accepts %s as a schedule of %d events", js, s.NumEvents())
		}
	}
}

// DecodeBinary plus RecostAll allocate by ranks, views, communicating pairs
// and K — never by events: the same number of objects for a fixture recorded
// at 1× and at 4× the iterations, and bytes within a bound that knows nothing
// of the event count. (ROADMAP item 2: "replay decode allocations per
// schedule O(1)".)
func TestRecostAllocsIndependentOfEvents(t *testing.T) {
	ms := randomModels(rand.New(rand.NewSource(7)), 8)
	for _, fx := range fixtures() {
		var objects [2]float64
		for i, iters := range []int{shortIters, 4 * shortIters} {
			_, sched := record(t, fx, iters)
			data, err := sched.EncodeBinary()
			if err != nil {
				t.Fatal(err)
			}
			pass := func() {
				s, err := replay.DecodeBinary(data)
				if err == nil {
					_, err = s.RecostAll(ms)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			objects[i] = testing.AllocsPerRun(5, pass)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			pass()
			runtime.ReadMemStats(&after)
			n, members := sched.Nodes, 0
			for _, view := range sched.Views {
				members += len(view)
			}
			// Four float windows per rank, an instance or two per view member,
			// a queue and a few slots per pair (at most n² of them), all K wide.
			bound := uint64(4096 + 8*len(ms)*(16*n+8*members+8*n*n))
			if grew := after.TotalAlloc - before.TotalAlloc; grew > bound {
				t.Errorf("%s, %d events in %d bytes: decode + re-cost allocated %d bytes, bound %d", fx.name, sched.NumEvents(), len(data), grew, bound)
			}
		}
		if objects[0] != objects[1] {
			t.Errorf("%s: decode + re-cost allocates %.0f objects at 1× the iterations, %.0f at 4×", fx.name, objects[0], objects[1])
		}
	}
}

const corpusDir = "testdata/fuzz/FuzzDecodeBinary"

// seedCorpus is the committed FuzzDecodeBinary corpus: one recorded schedule
// per fixture, that schedule cut short, and the hostile-count payloads.
func seedCorpus(t testing.TB) map[string][]byte {
	seeds := hostilePayloads()
	for _, fx := range fixtures() {
		_, sched := record(t, fx, shortIters)
		data, err := sched.EncodeBinary()
		if err != nil {
			t.Fatal(err)
		}
		seeds["recorded-"+fx.name] = data
		if fx.name == "shrink" {
			seeds["recorded-shrink-truncated"] = data[:len(data)*2/3]
		}
	}
	return seeds
}

// The committed corpus is what this build records and encodes (run with
// -update to rewrite it). It doubles as the wire-format pin of this
// package: a recorder or encoder change that moves a byte fails here.
func TestSeedCorpusIsCurrent(t *testing.T) {
	seeds := seedCorpus(t)
	if *update {
		if err := os.RemoveAll(corpusDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(corpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range seeds {
		path := filepath.Join(corpusDir, name)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if *update {
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run go test ./internal/replay -run TestSeedCorpusIsCurrent -update)", err)
		}
		if string(got) != want {
			t.Errorf("%s differs from what this build encodes (re-run with -update if the change is intended)", path)
		}
	}
	files, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(seeds) {
		t.Errorf("%s holds %d files, the generator makes %d", corpusDir, len(files), len(seeds))
	}
}

// FuzzDecodeBinary: any input decodes to an error or to a schedule whose
// every rank, view member and event is backed by at least one input byte and
// which encodes back to exactly the input, and whatever decodes re-costs —
// batched, and one model at a time — to identical results or an error, never
// a panic.
func FuzzDecodeBinary(f *testing.F) {
	ms := randomModels(rand.New(rand.NewSource(1)), 2)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := replay.DecodeBinary(data)
		if err != nil {
			return
		}
		items := s.Nodes + s.NumEvents()
		for _, view := range s.Views {
			items += 1 + len(view)
		}
		if items > len(data) {
			t.Fatalf("%d bytes decoded to %d ranks, views, members and events", len(data), items)
		}
		if again, err := s.EncodeBinary(); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("%d bytes decode, then encode to %d different ones (err %v)", len(data), len(again), err)
		}
		reps, err := s.RecostAll(ms)
		if err != nil {
			return
		}
		for j, m := range ms {
			one, err := s.Recost(m)
			if err != nil {
				t.Fatalf("RecostAll succeeds, Recost(models[%d]) fails: %v", j, err)
			}
			if d := diffReplayed(reps[j], one); d != "" {
				t.Fatalf("RecostAll[%d] != Recost: %s", j, d)
			}
		}
	})
}
