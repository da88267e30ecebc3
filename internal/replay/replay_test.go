package replay_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
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
	"esrp/internal/obs"
	"esrp/internal/replay"
)

var update = flag.Bool("update", false, "rewrite the committed FuzzDecodeBinary seed corpus and testdata/counts.json from this build")

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
	case !sameFloats(a.Clocks, b.Clocks):
		return fmt.Sprintf("Clocks %v vs %v", a.Clocks, b.Clocks)
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
				if d := diffReplayed(&reps[j], one); d != "" {
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
				if d := diffReplayed(&reps[0], &reps[k-1]); d != "" {
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
	flops := []float64{3e3, 9e3}
	rec := replay.NewRecorder()
	rec.Init(2)
	view := rec.RegisterView([]int{0, 1})
	for g := range flops {
		r := rec.Rank(g)
		r.Compute(replay.WorkVec, flops[g])
		for i := 0; i < steps; i++ {
			r.Collective(replay.KindBcast, view, bytes(i), 0, 0, g == 0)
		}
		for i := 0; i < steps; i++ {
			r.Collective(replay.KindGather, view, bytes(i)*int64(g), 0, 0, g == 0)
		}
	}
	s := rec.Schedule()
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
			r.Compute(replay.WorkVec, float64(100*(g+1)))
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

// A decoded schedule re-costs to the recorded schedule's exact figures, and
// re-encoding what was decoded reproduces the bytes.
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
		got, err := replay.DecodeBinary(bytes.Clone(data))
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		again, err := got.EncodeBinary()
		if err != nil || !bytes.Equal(again, data) {
			t.Errorf("%s: re-encoding differs from the original bytes (err %v)", fx.name, err)
		}
		reps, err := got.RecostAll(ms)
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		for j := range reps {
			if d := diffReplayed(&reps[j], &want[j]); d != "" {
				t.Errorf("%s model %d: %s", fx.name, j, d)
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

// Recorder.Schedule freezes once: a second call returns the first call's
// schedule, and Init starts a recording that freezes afresh.
func TestRecorderFreezesOnce(t *testing.T) {
	rec := replay.NewRecorder()
	rec.Init(2)
	view := rec.RegisterView([]int{0, 1})
	for g := range 2 {
		rec.Rank(g).Compute(replay.WorkVec, 1e3)
		rec.Rank(g).Collective(replay.KindAllreduce, view, 8, 1, 8, false)
	}
	s := rec.Schedule()
	if rec.Schedule() != s {
		t.Error("a second Schedule call froze the recording again")
	}
	rec.Init(3)
	if again := rec.Schedule(); again == s || again.Nodes != 3 {
		t.Errorf("after Init(3), Schedule returns %d ranks (the first schedule: %v)", again.Nodes, again == s)
	}
}

// A rank closes a block after each collective. Closing one equal to a block
// already in its dictionary appends one reference and nothing else: no
// allocation, and the dictionary keeps its bytes.
func TestRecorderRepeatedBlockAllocatesNothing(t *testing.T) {
	rec := replay.NewRecorder()
	rec.Init(2)
	view := rec.RegisterView([]int{0, 1})
	iteration := func(r *replay.Rank, g int) {
		r.Compute(replay.WorkVec, 1e3)
		r.Send(1-g, 64)
		r.Recv(1 - g)
		r.Collective(replay.KindAllreduce, view, 8, 1, 8, false)
		r.Compute(replay.WorkVec, 2e3)
		r.Collective(replay.KindAllreduce, view, 16, 1, 16, false)
	}
	r0, r1 := rec.Rank(0), rec.Rank(1)
	iteration(r0, 0) // adds the two blocks
	iteration(r1, 1)
	const runs = 100
	if allocs := testing.AllocsPerRun(runs, func() { iteration(r0, 0) }); allocs != 0 {
		t.Errorf("recording a repeated iteration allocates %.1f times", allocs)
	}
	for range runs + 1 {
		iteration(r1, 1)
	}
	s := rec.Schedule()
	if events, refs := replay.DictStats(s); events != 12 || refs != 2*2*(runs+2) {
		t.Errorf("%d iterations: %d dictionary events and %d references, want 12 and %d", runs+2, events, refs, 2*2*(runs+2))
	}
	if _, err := s.Recost(cluster.DefaultCostModel()); err != nil {
		t.Fatal(err)
	}
}

// varints encodes each value as a varint.
func varints(vals ...uint64) []byte {
	var out []byte
	for _, v := range vals {
		out = binary.AppendUvarint(out, v)
	}
	return out
}

// payload builds an input: the magic followed by each value as a varint,
// then the parts as they are.
func payload(vals []uint64, parts ...[]byte) []byte {
	out := append([]byte("ESRPRPL3"), varints(vals...)...)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// stream builds one rank's part of the payload: its dictionary, each block
// behind its length, then its references behind their byte count.
func stream(blocks [][]byte, refs ...uint64) []byte {
	out := varints(uint64(len(blocks)))
	for _, b := range blocks {
		out = append(binary.AppendUvarint(out, uint64(len(b))), b...)
	}
	r := varints(refs...)
	return append(binary.AppendUvarint(out, uint64(len(r))), r...)
}

// once is a stream of one block used once.
func once(events ...byte) []byte { return stream([][]byte{events}, 0) }

// ev encodes one event of a hand-built block: its kind, then each field as
// a varint.
func ev(k replay.Kind, fields ...uint64) []byte {
	return append([]byte{byte(k)}, varints(fields...)...)
}

// compute encodes a Compute event of flops spent on vector work.
func compute(flops float64) []byte {
	return binary.LittleEndian.AppendUint64([]byte{byte(replay.KindCompute), byte(replay.WorkVec)}, math.Float64bits(flops))
}

// cat concatenates byte slices.
func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// hostilePayloads are inputs whose length fields announce far more than the
// bytes that follow could hold, whose views name ranks that do not exist,
// or whose dictionary or references break the block rules.
func hostilePayloads() map[string][]byte {
	send := func(peer, bytes uint64) []byte { return ev(replay.KindSend, peer, bytes) }
	allreduce := ev(replay.KindAllreduce, 0, 0, 8, 0, 0) // on view 0, the one view {0}
	a, b := cat(compute(1), allreduce), cat(compute(2), allreduce)
	oneView := []uint64{1, 1, 1, 0} // one node, one view: {0}
	return map[string][]byte{
		"events-2^32":      payload([]uint64{1, 0, 1 << 32}), // the 15-byte input that asked for 206 GB of events, now for 2³² blocks
		"events-2^31":      payload([]uint64{1, 0, 1 << 31}),
		"block-bytes-2^32": payload([]uint64{1, 0, 1, 1 << 32}),
		"ref-bytes-2^32":   payload([]uint64{1, 0, 0, 1 << 32}),
		"nodes-2^24":       payload([]uint64{1 << 24, 0}), // passed the old "sane" guard: 400 MB of slice headers
		"views-2^24":       payload([]uint64{1, 1 << 24}),
		"members-2^20":     payload([]uint64{1 << 20, 1, 1 << 20}),             // one view as wide as a node count no input backs
		"member-past-end":  payload([]uint64{2, 1, 2, 0, 1, 0, 0, 0, 0}),       // view [0, 2] on 2 nodes
		"member-overflow":  payload([]uint64{2, 1, 2, 1, 1 << 63, 0, 0, 0, 0}), // delta that wraps int
		"varint-overflow":  append(payload(nil), bytes.Repeat([]byte{0xff}, 11)...),
		"zero-nodes":       payload([]uint64{0, 0}),
		"unknown-kind":     payload([]uint64{1, 0}, once(99)),
		"truncated-float":  payload([]uint64{1, 0}, once(compute(1)[:4]...)), // a block that ends mid-event
		"truncated-block":  payload([]uint64{1, 0, 1, 9}, compute(1)[:4]),
		"block-past-end":   payload([]uint64{1, 0, 1, 1}), // a length that fits the bytes left only with its own
		"truncated-header": []byte("ESRPRP"),
		"bad-magic":        []byte("ESRPCCF1........"),
		"format-1":         append([]byte("ESRPRPL1"), varints(1, 0, 1, uint64(replay.KindRTFinal))...),
		"format-2":         append([]byte("ESRPRPL2"), varints(1, 0, 1, 1, 1, uint64(replay.KindRTFinal), 1, 0)...),
		// Fields wider than the event they decode into: rank 0 sends 8 bytes
		// to peer 2³²+1, which used to wrap to peer 1 and re-cost cleanly.
		"peer-2^32+1": payload([]uint64{2, 0}, once(send(1<<32+1, 8)...), once(ev(replay.KindRecv, 0)...)),
		"view-2^32":   payload(oneView, once(ev(replay.KindAllreduce, 0, 1<<32, 8, 0, 0)...)),
		"bytes-2^63":  payload([]uint64{2, 0}, once(send(1, 1<<63)...), once(ev(replay.KindRecv, 0)...)),
		// One schedule, one encoding: nothing after the last rank, no padded
		// varints, a root flag of 0 or 1, and each stream cut into blocks
		// after its collectives, its distinct blocks listed once each, in
		// order of first use.
		"trailing-bytes":       append(payload([]uint64{1, 0}, once(byte(replay.KindRTFinal))), 0xde, 0xad, 0xbe, 0xef),
		"padded-varint":        append([]byte("ESRPRPL3"), 0x81, 0x00, 0, 0),
		"root-flag-2":          payload(oneView, once(ev(replay.KindBcast, 2, 0, 8, 0, 0)...)),
		"ref-past-dictionary":  payload(oneView, stream([][]byte{a}, 0, 1)),
		"ref-out-of-order":     payload(oneView, stream([][]byte{a, b}, 1, 0)),
		"unused-block":         payload(oneView, stream([][]byte{a, b}, 0, 0)),
		"duplicate-block":      payload(oneView, stream([][]byte{a, b, a}, 0, 1, 2)),
		"empty-block":          payload(oneView, stream([][]byte{a, nil}, 0, 1)),
		"collective-mid-block": payload(oneView, stream([][]byte{cat(a, compute(3))}, 0)),
		"open-block-not-last":  payload(oneView, stream([][]byte{compute(3), a}, 0, 1)),
		"open-block-repeated":  payload(oneView, stream([][]byte{compute(3)}, 0, 0)),
		// 100 envelopes in a block referenced 100 times: 10 000 envelopes in
		// 410 payload bytes, which the scan refuses.
		"envelopes-past-bytes": payload(oneView, stream([][]byte{cat(bytes.Repeat(cat(ev(replay.KindEnvStart, 0), ev(replay.KindEnvEnd)), 100), allreduce)}, make([]uint64, 100)...)),
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
	}
	data := hostilePayloads()["envelopes-past-bytes"]
	if _, err := replay.DecodeBinary(data); err == nil || !strings.Contains(err.Error(), "10000 envelopes in 410 payload bytes: too many to re-cost") {
		t.Errorf("envelopes-past-bytes (%d bytes): got %v, want the envelope count's refusal", len(data), err)
	}

	// A valid encoding that expands without bound: rank 0 repeats a block of
	// two sends to rank 1, which never receives, 10⁶ times. The walk stops
	// once the messages in flight outnumber the payload's bytes, so neither
	// half allocates more than a fixed multiple of the input: a send slot is
	// 16 bytes plus 8 per model, and the pool doubles up to the bound, so it
	// allocates about twice its final size in all — 49 bytes per input byte
	// here, under a bound of 64.
	const repeats = 1_000_000
	send := ev(replay.KindSend, 1, 8)
	flood := payload([]uint64{2, 1, 1, 0},
		stream([][]byte{cat(send, send, ev(replay.KindAllreduce, 0, 0, 8, 0, 0))}, make([]uint64, repeats)...),
		stream(nil))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := replay.DecodeBinary(flood)
	if err == nil {
		_, err = s.Recost(cluster.DefaultCostModel())
	}
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "more send slots and collective instances in flight than") {
		t.Errorf("send flood: got %v, want the in-flight bound's error", err)
	}
	grew := after.TotalAlloc - before.TotalAlloc
	t.Logf("send flood: %d bytes of input allocated %d (%.1f per byte)", len(flood), grew, float64(grew)/float64(len(flood)))
	if grew > 64*uint64(len(flood)) {
		t.Errorf("send flood: %d bytes of input allocated %d", len(flood), grew)
	}
}

// Two-byte varints are accepted when minimal and within their field's limit,
// and rejected exactly as the general path rejects them otherwise: padded,
// cut short, or too large for the field. An accepted one decodes to its
// value: rank 0 runs EnvStart(value), Compute, EnvEnd, and the envelope its
// traced walk emits carries the value. An envelope that ends at a NaN clock
// is not later than its start, and the walk drops it.
func TestDecodeTwoByteVarints(t *testing.T) {
	envStart := func(iter ...byte) []byte {
		return payload([]uint64{1, 0}, once(append([]byte{byte(replay.KindEnvStart)}, iter...)...))
	}
	closed := func(flops float64, iter ...byte) []byte {
		blk := cat([]byte{byte(replay.KindEnvStart)}, iter, compute(flops), []byte{byte(replay.KindEnvEnd)})
		return payload([]uint64{1, 0}, once(blk...))
	}
	bcastRoot := func(root ...byte) []byte { // the root flag's limit is 1
		blk := cat([]byte{byte(replay.KindBcast)}, root, []byte{0, 8, 0, 0})
		return payload([]uint64{1, 1, 1, 0}, once(blk...))
	}
	cases := []struct {
		name  string
		data  []byte
		iters []int  // the traced envelopes' iterations, when want is ""
		want  string // an error substring
	}{
		{"128", closed(1e3, 0x80, 0x01), []int{128}, ""},
		{"16383", closed(1e3, 0xff, 0x7f), []int{16383}, ""},
		{"nan-clock", closed(math.NaN(), 7), nil, ""},
		{"padded", envStart(0x80, 0x00), nil, "varint at offset 13 is padded"},
		{"cut-after-first-byte", envStart(0x80), nil, io.ErrUnexpectedEOF.Error()},
		{"root-flag-128", bcastRoot(0x80, 0x01), nil, "value 128 at offset 15 exceeds 1"},
		{"node-count-past-input", append([]byte("ESRPRPL3"), 0x80, 0x01, 0), nil, "value 128 at offset 8 exceeds 3"},
	}
	for _, c := range cases {
		s, err := replay.DecodeBinary(c.data)
		if c.want != "" {
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
			}
			continue
		}
		var tr *obs.Trace
		if err == nil {
			_, tr, err = s.Trace(cluster.DefaultCostModel(), obs.Options{Trace: true}, nil)
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		var iters []int
		for _, e := range tr.Envelopes[0] {
			iters = append(iters, e.Iter)
		}
		if !slices.Equal(iters, c.iters) {
			t.Errorf("%s: envelopes %+v, want iterations %v", c.name, tr.Envelopes[0], c.iters)
		}
	}
}

// Kind 3 was a clock sync that no solve ever recorded. Its value stays
// reserved, so no later kind is renumbered, and a stream carrying it is
// rejected by the decoder.
func TestReservedKindIsRejected(t *testing.T) {
	const reserved = 3
	val := binary.LittleEndian.AppendUint64([]byte{reserved}, math.Float64bits(1.5))
	data := payload([]uint64{1, 0}, once(append(val, byte(replay.KindRTFinal))...))
	if s, err := replay.DecodeBinary(data); err == nil || !strings.Contains(err.Error(), "unknown event kind 3") {
		t.Fatalf("DecodeBinary: got %v, %v; want the unknown event kind 3 error", s, err)
	}
}

// A send or receive to a peer past the node count and a collective on a view
// id past the view list are the validating scan's errors, so DecodeBinary's.
// What only a replay can find — a rank outside the view it names, a receive
// nothing sends, a stream cut short — is RecostAll's, with its "stuck"
// diagnostic, and fails the same after a trip through the wire.
func TestRecostHostileSchedulesError(t *testing.T) {
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"send-peer-past-nodes", payload([]uint64{2, 0}, once(ev(replay.KindSend, 2, 8)...), once(ev(replay.KindRecv, 0)...)), "rank 0 block 0 event 0 (send): peer 2 out of range"},
		{"recv-peer-past-nodes", payload([]uint64{2, 0}, once(ev(replay.KindSend, 1, 8)...), once(ev(replay.KindRecv, 2)...)), "rank 1 block 0 event 0 (recv): peer 2 out of range"},
		{"view-past-views", payload([]uint64{1, 1, 1, 0}, once(ev(replay.KindAllreduce, 0, 1, 8, 0, 0)...)), "rank 0 block 0 event 0 (allreduce): view 1 out of range"},
	} {
		if _, err := replay.DecodeBinary(c.data); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}

	// Rank g's part of a four-rank schedule: compute, pass 64 bytes around a
	// ring, join an allreduce on view.
	ring := func(rec *replay.Recorder, g int, view int32) {
		r := rec.Rank(g)
		r.Compute(replay.WorkVec, 1e3*float64(g+1))
		r.Send((g+1)%4, 64)
		r.Recv((g + 3) % 4)
		r.Collective(replay.KindAllreduce, view, 8, 2, 16, false)
	}
	cases := map[string]struct {
		record func(rec *replay.Recorder, all int32)
		want   string
	}{
		"complete": {func(rec *replay.Recorder, all int32) {
			for g := range 4 {
				ring(rec, g, all)
			}
		}, ""},
		"non-member": {func(rec *replay.Recorder, all int32) {
			pair := rec.RegisterView([]int{0, 2})
			for g := range 4 {
				ring(rec, g, all)
			}
			rec.Rank(1).Collective(replay.KindAllreduce, pair, 8, 1, 8, false)
		}, "not a member"},
		"recv-never-sent": {func(rec *replay.Recorder, all int32) {
			rec.Rank(0).Recv(0)
			for g := range 4 {
				ring(rec, g, all)
			}
		}, "stuck: rank 0 at event 0 (recv)"},
		"truncated": {func(rec *replay.Recorder, all int32) {
			for g := range 3 {
				ring(rec, g, all)
			}
			rec.Rank(3).Compute(replay.WorkVec, 4e3)
		}, "no progress (truncated or inconsistent schedule); stuck:"},
	}
	ms := randomModels(rand.New(rand.NewSource(3)), 2)
	for name, c := range cases {
		rec := replay.NewRecorder()
		rec.Init(4)
		c.record(rec, rec.RegisterView([]int{0, 1, 2, 3}))
		s := rec.Schedule()
		data, _ := s.EncodeBinary()
		dec, err := replay.DecodeBinary(data)
		if err != nil {
			t.Fatalf("%s: the wire form does not decode: %v", name, err)
		}
		for _, s := range []*replay.Schedule{s, dec} {
			_, err := s.RecostAll(ms)
			switch {
			case c.want == "" && err != nil:
				t.Errorf("%s: %v", name, err)
			case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
				t.Errorf("%s: got %v, want an error containing %q", name, err, c.want)
			}
		}
	}

	// Nodes and Views stay exported: what a caller does to them after the
	// scan is caught when the re-coster sizes its state, or at the event.
	_, good := record(t, fixtures()[2], shortIters)
	data, err := good.EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}
	after := map[string]struct {
		f    func(s *replay.Schedule)
		want string
	}{
		"nodes":            {func(s *replay.Schedule) { s.Nodes = 6 }, "6 nodes but carries 4"},
		"nodes negative":   {func(s *replay.Schedule) { s.Nodes = -1 }, "-1 nodes but carries 4"},
		"members":          {func(s *replay.Schedule) { s.Views[0] = []int{0, 1, 2, 9} }, "not an ascending list"},
		"members unsorted": {func(s *replay.Schedule) { s.Views[0] = []int{0, 2, 1, 3} }, "not an ascending list"},
		"views":            {func(s *replay.Schedule) { s.Views = nil }, "view 0 out of range"},
		"member dropped": {func(s *replay.Schedule) {
			s.Views[0] = slices.DeleteFunc(slices.Clone(s.Views[0]), func(g int) bool { return g == 1 })
		}, "not a member"},
	}
	for name, c := range after {
		s, err := replay.DecodeBinary(bytes.Clone(data))
		if err != nil {
			t.Fatal(err)
		}
		c.f(s)
		if _, err := s.RecostAll(ms); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s changed after construction: got %v, want an error containing %q", name, err, c.want)
		}
	}
}

// A schedule with fewer than n²/64 payload bytes is refused before anything
// is sized: 2¹⁶ empty ranks, 128 kB of input, once asked the walk for a 16 GB
// pair table. The table is gone, and the refusal stays, so that whether a
// schedule re-costs does not change with the build. 128 empty ranks, two
// bytes each, still re-cost.
func TestRecostRefusesSparseRankCounts(t *testing.T) {
	for _, c := range []struct {
		nodes int
		want  string
	}{
		{128, ""},
		{129, "129 ranks in 258 payload bytes: too sparse to re-cost"},
		{1 << 16, "65536 ranks in 131072 payload bytes: too sparse to re-cost"},
	} {
		s, err := replay.DecodeBinary(payload(append([]uint64{uint64(c.nodes), 0}, make([]uint64, 2*c.nodes)...)))
		if err != nil {
			t.Fatal(err)
		}
		n, err := recostBytes(s)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%d empty ranks: %v", c.nodes, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%d empty ranks: got %v, want an error containing %q", c.nodes, err, c.want)
		case c.want != "" && n > 1<<10:
			t.Errorf("%d empty ranks: refusing allocated %d bytes", c.nodes, n)
		}
	}
}

// recostBytes returns the bytes one Recost of s allocates and its error.
// TotalAlloc counts the whole process: a refusal makes 144 bytes, but the
// first one after a collection also refills fmt's printer pool (760 bytes in
// all at GOMAXPROCS 2, more at higher ones), and an OS thread the runtime
// starts meanwhile adds its heap-allocated m and g structures (about 5.5 kB).
// So the call is measured as testing.AllocsPerRun measures: after a warm-up
// call, at GOMAXPROCS 1.
func recostBytes(s *replay.Schedule) (uint64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s.Recost(cluster.DefaultCostModel())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := s.Recost(cluster.DefaultCostModel())
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// DecodeBinary plus RecostAll allocate by ranks, views, communicating pairs,
// distinct blocks and K — never by events or block references: the same
// number of objects for a fixture recorded at 1× and at 4× the iterations,
// which is more than twice the references, and bytes within a bound that
// knows nothing of either count. (ROADMAP item 2: "replay decode allocations per
// schedule O(1)".)
func TestRecostAllocsIndependentOfEvents(t *testing.T) {
	ms := randomModels(rand.New(rand.NewSource(7)), 8)
	for _, fx := range fixtures() {
		var objects [2]float64
		var refs [2]int
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
			var dictEvents int
			dictEvents, refs[i] = replay.DictStats(sched)
			// Four float windows per rank, an instance or two per view member,
			// a queue and a few slots per pair (at most n² of them), all K
			// wide, and the distinct blocks' events, decoded once.
			bound := uint64(4096 + 8*len(ms)*(16*n+8*members+8*n*n) + 2*replay.EventBytes*dictEvents)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > bound {
				t.Errorf("%s, %d events in %d bytes: decode + re-cost allocated %d bytes, bound %d", fx.name, sched.NumEvents(), len(data), grew, bound)
			}
		}
		if objects[0] != objects[1] {
			t.Errorf("%s: decode + re-cost allocates %.0f objects at 1× the iterations, %.0f at 4×", fx.name, objects[0], objects[1])
		}
		if refs[1] < 2*refs[0] {
			t.Errorf("%s: %d block references at 1× the iterations, %d at 4×; the fixture does not scale", fx.name, refs[0], refs[1])
		}
	}
}

const corpusDir = "testdata/fuzz/FuzzDecodeBinary"

// seedCorpus is the committed FuzzDecodeBinary corpus: one recorded schedule
// per fixture, that schedule cut short, the hostile-count payloads, and a
// rank whose envelope ends at a NaN clock.
func seedCorpus(t testing.TB) map[string][]byte {
	seeds := hostilePayloads()
	seeds["envelope-ends-at-nan"] = payload([]uint64{1, 0}, once(cat(ev(replay.KindEnvStart, 7), compute(math.NaN()), ev(replay.KindEnvEnd))...))
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
// every rank, view, member, dictionary event and block reference is backed by
// at least one input byte and which encodes back to exactly the input, and
// whatever decodes re-costs — batched, and one model at a time — to
// identical results or an error, never a panic. The traced walk is the
// re-cost too: Schedule.Trace fails exactly when Recost does, returns
// Recost's Replayed, its spans tile each rank's timeline, and every
// recovery envelope it keeps ends after it starts. The expanded events are
// not bounded by the input: a reference repeats a block.
func FuzzDecodeBinary(f *testing.F) {
	ms := randomModels(rand.New(rand.NewSource(1)), 2)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := replay.DecodeBinary(data)
		if err != nil {
			return
		}
		events, refs := replay.DictStats(s)
		items := s.Nodes + events + refs
		for _, view := range s.Views {
			items += 1 + len(view)
		}
		if items > len(data) {
			t.Fatalf("%d bytes decoded to %d ranks, views, members, dictionary events and references", len(data), items)
		}
		if again, err := s.EncodeBinary(); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("%d bytes decode, then encode to %d different ones (err %v)", len(data), len(again), err)
		}
		reps, batchErr := s.RecostAll(ms)
		for j, m := range ms {
			one, err := s.Recost(m)
			rep, tr, trErr := s.Trace(m, obs.Options{Trace: true}, nil)
			switch {
			case (err == nil) != (trErr == nil):
				t.Fatalf("models[%d]: Recost fails with %v, Trace with %v", j, err, trErr)
			case err != nil && batchErr == nil:
				t.Fatalf("RecostAll succeeds, Recost(models[%d]) fails: %v", j, err)
			case err != nil:
				continue
			}
			if d := diffReplayed(rep, one); d != "" {
				t.Fatalf("Trace(models[%d]) != Recost: %s", j, d)
			}
			if err := tr.CheckTiling(); err != nil {
				t.Fatalf("Trace(models[%d]): %v", j, err)
			}
			for g, envs := range tr.Envelopes {
				for _, e := range envs {
					if !(e.End > e.Start) {
						t.Fatalf("Trace(models[%d]): rank %d envelope %+v does not end after it starts", j, g, e)
					}
				}
			}
			if batchErr == nil {
				if d := diffReplayed(&reps[j], one); d != "" {
					t.Fatalf("RecostAll[%d] != Recost: %s", j, d)
				}
			}
		}
	})
}
