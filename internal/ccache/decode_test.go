package ccache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"esrp/internal/core"
)

// sweepEntries loads testdata/sweep: result entries copied, frame and all,
// out of the res/ tier of a real cold sweep
//
//	esrpcampaign -gen poisson2d -n 32 -nodes 8 -strategies none,esr,esrp,imcr \
//	  -ts 10 -phis 1,2 -seeds 3 -mtbf 300 -horizon 80 -group 2 -group-prob 0.5 \
//	  -spares 2 -cache DIR
//
// one per recovery mix (none, restart, spare, shrink + skipped).
func sweepEntries(t testing.TB) map[string][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "sweep", "*.res"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no sweep entries under testdata/sweep (err %v)", err)
	}
	out := make(map[string][]byte, len(files))
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := unframe(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out[filepath.Base(path)] = payload
	}
	return out
}

// encode is appendResultEntry's record of e on its own.
func encode(t testing.TB, e *ResultEntry) []byte {
	t.Helper()
	payload, err := appendResultEntry(nil, e)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// decode is decodeResultEntry into a fresh entry: nil on an error.
func decode(payload []byte) (*ResultEntry, error) {
	e := new(ResultEntry)
	if err := decodeResultEntry(payload, e); err != nil {
		return nil, err
	}
	return e, nil
}

// The committed sweep entries are what this build writes: each decodes and
// encodes back to the same bytes, and together they carry every recovery
// mode. A field added to or moved in the record fails here until the
// entries are copied afresh.
func TestSweepEntriesAreCurrent(t *testing.T) {
	modes := map[string]bool{}
	for name, payload := range sweepEntries(t) {
		got, err := decode(payload)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if again := encode(t, got); !bytes.Equal(again, payload) {
			t.Errorf("%s is not what PutResult writes for its value today", name)
		}
		for _, ev := range got.Result.Recoveries {
			modes[ev.Mode] = true
		}
	}
	for _, mode := range recoveryModes {
		if !modes[mode] {
			t.Errorf("no sweep entry carries a %q recovery", mode)
		}
	}
}

// setEveryField makes every field below v non-zero, slices one element long.
func setEveryField(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			setEveryField(v.Field(i))
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		setEveryField(v.Index(0))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.Float64:
		v.SetFloat(0.1)
	case reflect.String:
		v.SetString("x")
	default:
		panic("setEveryField: a " + v.Kind().String() + " field: teach appendResultEntry, decodeResultEntry and this helper about it")
	}
}

// Every entry PutResult can write comes back bit for bit, through the
// cache as well as through the decoder alone; setEveryField's entry fails
// here when a field is added to ResultEntry, CellResult, cluster.CostModel
// or core.RecoveryEvent without its line in the record.
func TestDecodeResultEntryRoundTrip(t *testing.T) {
	full := &ResultEntry{}
	setEveryField(reflect.ValueOf(full).Elem())
	full.Result.Recoveries[0].Mode = core.RecoverySkipped // "x" is no mode
	extremes := testEntry()
	extremes.Model.FlopTime = math.Copysign(0, -1)
	extremes.Model.Latency = 5e-324
	extremes.Model.BytePeriod = math.MaxFloat64
	extremes.Model.Overhead = -math.MaxFloat64
	extremes.Result.Drift = -1e21
	extremes.Result.MaxNodeBytes = math.MaxInt64
	extremes.Result.HaloBytes = math.MinInt64
	extremes.Result.Iterations = math.MinInt
	extremes.Result.TotalSteps = math.MaxInt
	bare := testEntry()
	bare.Result.Kernels, bare.Result.Recoveries = "", nil
	events := testEntry()
	events.Result.Kernels = "a\"\x00\xff 世"
	events.Result.Recoveries = []core.RecoveryEvent{
		{Iteration: 1, Ranks: nil, Mode: core.RecoveryRestart},
		{Iteration: 2, Ranks: []int{}, Mode: core.RecoveryShrink, SparesLeft: -1},
		{Iteration: 3, Ranks: []int{0, 1, 2, 3, 4, 5, math.MinInt}, Mode: core.RecoverySkipped, RecoveredAt: math.MaxInt},
	}

	c := openTestCache(t)
	k := goldenInput().Key()
	if _, ok := c.GetResult(k); ok {
		t.Fatal("hit on an empty cache")
	}
	for name, want := range map[string]*ResultEntry{
		"every-field": full, "extremes": extremes, "bare": bare, "events": events, "plain": testEntry(),
	} {
		payload := encode(t, want)
		if n := recordLenMax(want); len(payload) > n {
			t.Errorf("%s: %d-byte record, recordLenMax says at most %d", name, len(payload), n)
		}
		got, err := decode(payload)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !bytes.Equal(encode(t, got), payload) || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded %+v, want %+v", name, got, want)
		}
		if err := c.PutResult(k, want); err != nil {
			t.Fatal(err)
		}
		if cached, ok := c.GetResult(k); !ok || !bytes.Equal(encode(t, cached), payload) || !reflect.DeepEqual(cached, want) {
			t.Errorf("%s: through the cache: ok=%v, got %+v", name, ok, cached)
		}
	}
	if st := c.Stats(); st.Corrupt != 0 || st.BytesRead == 0 || st.BytesRead != st.BytesWritten {
		t.Errorf("round trips: %+v, want equal bytes read and written and no corrupt entry", st)
	}
	other := testEntry()
	other.Result.Recoveries[0].Mode = "tomorrow's"
	if err := c.PutResult(k, other); err == nil {
		t.Error("PutResult stored a mode the record cannot hold")
	}
}

// What is not a record PutResult writes is an error to the decoder and a
// miss counted once as corrupt to the cache.
func TestDecodeResultEntryRejectsOtherLayouts(t *testing.T) {
	// Every field of these two is zero or one byte long up to the event
	// count at offset 73: one "spare" event, with ranks [2 3] or with nil
	// ranks and a two-byte iteration.
	good := encode(t, &ResultEntry{Result: CellResult{Recoveries: []core.RecoveryEvent{{Ranks: []int{2, 3}, Mode: core.RecoverySpare}}}})
	nilRanks := encode(t, &ResultEntry{Result: CellResult{Recoveries: []core.RecoveryEvent{{Iteration: 1000, Mode: core.RecoverySpare}}}})
	set := func(payload []byte, off int, b ...byte) []byte {
		return slices.Concat(payload[:off], b, payload[off+1:])
	}
	cases := map[string][]byte{
		"trailing-byte":       append(slices.Clone(good), 0),
		"converged-2":         set(good, 32, 2),
		"mode-4":              set(good, len(good)-5, 4),
		"padded-varint":       set(good, 33, 0x80, 0),
		"events-past-end":     set(good, 73, 2),
		"events-huge":         set(good, 73, binary.AppendUvarint(nil, 1<<40)...),
		"ranks-past-end":      set(good, 74, 3),
		"rank-count-past-sum": set(good, 74, 1),
		"rank-sum-unused":     set(nilRanks, 74, 1),
		"int-overflow":        set(good, 33, bytes.Repeat([]byte{0xff}, 10)...),
	}
	full := encode(t, testEntry())
	for n := range full {
		cases[fmt.Sprintf("truncated-%d", n)] = full[:n]
	}
	c := openTestCache(t)
	k := goldenInput().Key()
	for name, payload := range cases {
		if e, err := decode(payload); err == nil {
			t.Errorf("%s: decoded to %+v", name, e)
		} else if !strings.HasPrefix(err.Error(), "ccache: result entry: ") {
			t.Errorf("%s: error %q does not say where it comes from", name, err)
		}
		before := c.Stats().Corrupt
		if err := writeFileAtomic(string(c.entryPath(nil, resultTierDir, k, ".res")), frame(payload)); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.GetResult(k); ok || c.Stats().Corrupt != before+1 {
			t.Errorf("%s: GetResult hit=%v, corrupt %d -> %d (want a miss counted once)", name, ok, before, c.Stats().Corrupt)
		}
		if slot := *testEntry(); c.LoadResult(k, &slot) || !reflect.DeepEqual(slot, ResultEntry{}) {
			t.Errorf("%s: LoadResult left %+v in its slot, want it zeroed", name, slot)
		}
	}
}

// testdata/format1.res is esr-shrink-skipped.res as the cache's first
// format wrote it: framed JSON. Open does not read a directory of that
// format (TestBuildMismatch); should such an entry reach GetResult anyway,
// it is a miss counted corrupt, never a decoded value.
func TestFormat1EntryIsAMiss(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "format1.res"))
	if err != nil {
		t.Fatal(err)
	}
	c := openTestCache(t)
	k := goldenInput().Key()
	if err := writeFileAtomic(string(c.entryPath(nil, resultTierDir, k, ".res")), data); err != nil {
		t.Fatal(err)
	}
	if e, ok := c.GetResult(k); ok || c.Stats().Corrupt != 1 {
		t.Errorf("a format-1 entry: hit=%v (%+v), %d corrupt; want a miss counted once", ok, e, c.Stats().Corrupt)
	}
}

// A warm probe decodes into its own slot, which costs the events and one
// array all their ranks share, however many events the entry holds: the
// kernel string is interned.
func TestDecodeResultEntryAllocations(t *testing.T) {
	payloads := sweepEntries(t)
	many := testEntry()
	many.Result.Recoveries = nil
	for i := range 32 {
		many.Result.Recoveries = append(many.Result.Recoveries, core.RecoveryEvent{
			Iteration: i, Ranks: []int{i, i + 1, i + 2, i + 3}, Mode: core.RecoverySpare,
		})
	}
	payloads["many-events"] = encode(t, many)
	for name, payload := range payloads {
		e, err := decode(payload)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var slot ResultEntry
		// The event slice, the rank array.
		if got := testing.AllocsPerRun(100, func() {
			slot = ResultEntry{}
			decodeResultEntry(payload, &slot)
		}); got > 2 {
			t.Errorf("%s: %v allocations per decode of a %d-event entry, want at most 2", name, got, len(e.Result.Recoveries))
		}
	}
}

// The events share one rank array, and each sees only its own ranks:
// appending to one event's ranks leaves the next event's alone, nil stays
// nil and an empty list empty and non-nil.
func TestDecodeResultEntryRanksDoNotAlias(t *testing.T) {
	in := testEntry()
	in.Result.Recoveries = []core.RecoveryEvent{
		{Iteration: 1, Ranks: []int{1, 2}, Mode: core.RecoverySpare},
		{Iteration: 2, Ranks: []int{3}, Mode: core.RecoverySpare},
		{Iteration: 3, Ranks: nil, Mode: core.RecoveryRestart},
		{Iteration: 4, Ranks: []int{}, Mode: core.RecoveryShrink},
		{Iteration: 5, Ranks: []int{4}, Mode: core.RecoverySpare},
	}
	e, err := decode(encode(t, in))
	if err != nil {
		t.Fatal(err)
	}
	ev := e.Result.Recoveries
	_ = append(ev[0].Ranks, 99)
	_ = append(ev[3].Ranks, 98)
	if !reflect.DeepEqual(ev[1].Ranks, []int{3}) || !reflect.DeepEqual(ev[4].Ranks, []int{4}) {
		t.Errorf("appending to one event's ranks wrote into another's: %v, %v", ev[1].Ranks, ev[4].Ranks)
	}
	if ev[2].Ranks != nil || ev[3].Ranks == nil || len(ev[3].Ranks) != 0 {
		t.Errorf("nil and empty ranks decoded to %#v and %#v", ev[2].Ranks, ev[3].Ranks)
	}
}

// FuzzDecodeResultEntry: any payload is an error, or a value that encodes
// back to the payload byte for byte; never a panic; and what decodes has
// room for no more events and ranks than the payload has bytes.
func FuzzDecodeResultEntry(f *testing.F) {
	for _, payload := range sweepEntries(f) {
		f.Add(payload)
		f.Add(payload[:len(payload)/2])
		f.Add(append(slices.Clone(payload), 0))
	}
	format1, err := os.ReadFile(filepath.Join("testdata", "format1.res"))
	if err != nil {
		f.Fatal(err)
	}
	wide := testEntry()
	wide.Result.Recoveries[0].Ranks = []int{0, 1, 2, 3, 4, 5, 6}
	restart := &ResultEntry{Result: CellResult{Recoveries: []core.RecoveryEvent{{Mode: core.RecoveryRestart}}}}
	for _, payload := range [][]byte{nil, format1[frameHeaderLen:], encode(f, &ResultEntry{}), encode(f, restart), encode(f, wide), encode(f, testEntry())} {
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		got, err := decode(payload)
		if err != nil {
			if got != nil {
				t.Fatalf("an error (%v) and a value", err)
			}
			return
		}
		if again := encode(t, got); !bytes.Equal(again, payload) {
			t.Fatalf("%x decoded to %+v, which encodes to %x", payload, got, again)
		}
		items := cap(got.Result.Recoveries)
		for _, ev := range got.Result.Recoveries {
			items += cap(ev.Ranks)
		}
		if items > len(payload) {
			t.Fatalf("%d bytes decoded to room for %d events and ranks", len(payload), items)
		}
	})
}

// testdata/sweep/esr-shrink-skipped.sched is the schedule-tier entry the same
// cold sweep wrote beside esr-shrink-skipped.res, copied frame and all from a
// cache directory of the build that first wrote ESRPRPL3 (its figures are
// the ones the ESRPRPL1 and ESRPRPL2 copies of the entry had; the event
// count grew by the span markers).
// It reads through the cache without counting corrupt, frames back to the
// file's bytes, and re-costs under the result entry's machine to that entry's
// figures — which a live solve produced — and under a skewed machine to the
// bits the writing build computed.
func TestPinnedScheduleEntryRecost(t *testing.T) {
	file, err := os.ReadFile(filepath.Join("testdata", "sweep", "esr-shrink-skipped.sched"))
	if err != nil {
		t.Fatal(err)
	}
	c := openTestCache(t)
	var k Key
	if err := writeFileAtomic(string(c.entryPath(nil, scheduleTierDir, k, ".sched")), file); err != nil {
		t.Fatal(err)
	}
	s, ok := c.GetSchedule(k)
	if !ok || c.Stats().Corrupt != 0 {
		t.Fatalf("the entry does not decode (corrupt %d)", c.Stats().Corrupt)
	}
	if s.Nodes != 8 || s.NumEvents() != pinnedEntryEvents {
		t.Errorf("decoded %d nodes, %d events; want 8, %d", s.Nodes, s.NumEvents(), pinnedEntryEvents)
	}
	if again, err := s.EncodeBinary(); err != nil || !bytes.Equal(frame(again), file) {
		t.Errorf("the entry is not what PutSchedule writes for its schedule today (err %v)", err)
	}

	entry, err := decode(sweepEntries(t)["esr-shrink-skipped.res"])
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Recost(entry.Model)
	if err != nil {
		t.Fatal(err)
	}
	if r := &entry.Result; rep.SimTime != r.SimTime || rep.RecoveryTime != r.RecoveryTime || rep.BytesSent != r.BytesSent {
		t.Errorf("re-cost under the entry's machine: {%.17g %.17g %d}, the solve had {%.17g %.17g %d}",
			rep.SimTime, rep.RecoveryTime, rep.BytesSent, r.SimTime, r.RecoveryTime, r.BytesSent)
	}
	skewed := entry.Model
	skewed.Latency *= 8
	skewed.BytePeriod /= 2
	if rep, err = s.Recost(skewed); err != nil {
		t.Fatal(err)
	}
	if got := [2]uint64{math.Float64bits(rep.SimTime), math.Float64bits(rep.RecoveryTime)}; got != pinnedEntrySkewed || rep.MsgsSent != pinnedEntryMsgs {
		t.Errorf("re-cost under the skewed machine: %#x, %d messages; pinned %#x, %d", got, rep.MsgsSent, pinnedEntrySkewed, pinnedEntryMsgs)
	}
}

// What the writing build read off esr-shrink-skipped.sched.
const (
	pinnedEntryEvents = 11919 // 11 195 before ESRPRPL3's markers
	pinnedEntryMsgs   = 4143
)

var pinnedEntrySkewed = [2]uint64{0x3f8d21a1b045d37f, 0x3f6a79248ff59320} // SimTime, RecoveryTime
