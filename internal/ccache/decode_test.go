package ccache

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
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

// sameAsJSON checks a decoded entry against encoding/json's reading of the
// same payload: deeply equal (nil and empty slices apart), and equal once
// written again (the sign of a zero apart).
func sameAsJSON(t *testing.T, payload []byte, got *ResultEntry) {
	t.Helper()
	var want ResultEntry
	if err := json.Unmarshal(payload, &want); err != nil {
		t.Fatalf("the cursor accepts what encoding/json rejects (%v): %q", err, payload)
	}
	if !reflect.DeepEqual(got, &want) {
		t.Fatalf("cursor and encoding/json disagree on %q:\n got %+v\nwant %+v", payload, got, &want)
	}
	gb, err1 := json.Marshal(got)
	wb, err2 := json.Marshal(&want)
	if err1 != nil || err2 != nil || !bytes.Equal(gb, wb) {
		t.Fatalf("re-encoding differs on %q:\n got %s (%v)\nwant %s (%v)", payload, gb, err1, wb, err2)
	}
}

// The committed sweep entries are what this build writes: each decodes, as
// encoding/json reads it, and encodes back to the same bytes. A field added
// to or moved in the entry fails here until decodeResultEntry follows and
// the entries are copied afresh.
func TestSweepEntriesAreCurrent(t *testing.T) {
	modes := map[string]bool{}
	for name, payload := range sweepEntries(t) {
		got, err := decodeResultEntry(payload)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		sameAsJSON(t, payload, got)
		if again, err := json.Marshal(got); err != nil || !bytes.Equal(again, payload) {
			t.Errorf("%s is not what PutResult writes for its value today (err %v)", name, err)
		}
		for _, ev := range got.Result.Recoveries {
			modes[ev.Mode] = true
		}
	}
	for _, mode := range []string{core.RecoverySpare, core.RecoveryShrink, core.RecoveryRestart, core.RecoverySkipped} {
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
		panic("setEveryField: a " + v.Kind().String() + " field: teach decodeResultEntry and this helper about it")
	}
}

// Every entry PutResult can write comes back bit for bit, through the
// cache as well as through the decoder alone.
func TestDecodeResultEntryRoundTrip(t *testing.T) {
	full := &ResultEntry{}
	setEveryField(reflect.ValueOf(full).Elem())
	extremes := testEntry()
	extremes.Model.FlopTime = math.Copysign(0, -1)
	extremes.Model.Latency = 5e-324
	extremes.Model.BytePeriod = math.MaxFloat64
	extremes.Model.Overhead = -math.MaxFloat64
	extremes.Result.Drift = -1e21
	extremes.Result.RelResidual = 1e-7
	extremes.Result.MaxNodeBytes = math.MaxInt64
	extremes.Result.HaloBytes = math.MinInt64
	extremes.Result.Iterations = math.MinInt
	extremes.Result.TotalSteps = math.MaxInt
	bare := testEntry()
	bare.Result.Kernels, bare.Result.Recoveries = "", nil
	events := testEntry()
	events.Result.Kernels = "a<b>&c \"q\" \\ \n\t\u2028 é 世 \x01"
	events.Result.Recoveries = []core.RecoveryEvent{
		{Iteration: 1, Ranks: nil, Mode: core.RecoveryRestart},
		{Iteration: 2, Ranks: []int{}, Mode: core.RecoveryShrink, SparesLeft: -1},
		{Iteration: 3, Ranks: []int{0, 1, 2, 3, 4, 5, 6}, Mode: core.RecoverySkipped},
		{Iteration: 4, Ranks: []int{-9}, Mode: "a mode \\ of \"tomorrow\""},
		{Iteration: 5, Ranks: []int{1}, Mode: ""},
	}

	c := openTestCache(t)
	k := goldenInput().Key()
	for name, want := range map[string]*ResultEntry{
		"every-field": full, "extremes": extremes, "bare": bare, "events": events, "plain": testEntry(),
	} {
		payload, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeResultEntry(payload)
		if err != nil {
			t.Errorf("%s: %v\n%s", name, err, payload)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded %+v, want %+v", name, got, want)
		}
		sameAsJSON(t, payload, got)
		if again, _ := json.Marshal(got); !bytes.Equal(again, payload) {
			t.Errorf("%s: re-encoded %s, want %s", name, again, payload)
		}
		if err := c.PutResult(k, want); err != nil {
			t.Fatal(err)
		}
		if cached, ok := c.GetResult(k); !ok || !reflect.DeepEqual(cached, want) {
			t.Errorf("%s: through the cache: ok=%v, got %+v", name, ok, cached)
		}
	}
	if st := c.Stats(); st.Corrupt != 0 {
		t.Errorf("round trips counted %d corrupt entries", st.Corrupt)
	}
}

// What passes the checksum but is not the layout PutResult writes is an
// error to the decoder and a counted-corrupt miss to the cache — including
// documents encoding/json would take.
func TestDecodeResultEntryRejectsOtherLayouts(t *testing.T) {
	good, err := json.Marshal(testEntry())
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, good, "", " "); err != nil {
		t.Fatal(err)
	}
	swap := func(old, new string) []byte {
		if !bytes.Contains(good, []byte(old)) {
			t.Fatalf("test entry no longer contains %s", old)
		}
		return bytes.Replace(good, []byte(old), []byte(new), 1)
	}
	cases := map[string][]byte{
		"empty":            nil,
		"indented":         indented.Bytes(),
		"trailing-newline": append(append([]byte(nil), good...), '\n'),
		"truncated":        good[:len(good)-1],
		"keys-swapped":     swap(`"iterations":123,"total_steps":130`, `"total_steps":130,"iterations":123`),
		"unknown-key":      swap(`"converged":true`, `"converged":true,"extra":1`),
		"null-bool":        swap(`"converged":true`, `"converged":null`),
		"float-in-int":     swap(`"iterations":123`, `"iterations":123.0`),
		"exponent-in-int":  swap(`"iterations":123`, `"iterations":1e2`),
		"leading-zero":     swap(`"iterations":123`, `"iterations":0123`),
		"plus-sign":        swap(`"iterations":123`, `"iterations":+123`),
		"hex-float":        swap(`"drift":1e-12`, `"drift":0x1p-2`),
		"underscore":       swap(`"max_node_bytes":4096`, `"max_node_bytes":4_096`),
		"infinity":         swap(`"drift":1e-12`, `"drift":Inf`),
		"float-overflow":   swap(`"drift":1e-12`, `"drift":1e999`),
		"int-overflow":     swap(`"bytes_sent":65536`, `"bytes_sent":9223372036854775808`),
		"bare-dot":         swap(`"drift":1e-12`, `"drift":1.`),
		"bare-exponent":    swap(`"drift":1e-12`, `"drift":1e`),
		"empty-recoveries": swap(`"recoveries":[{`, `"recoveries":[],"x":[{`),
		"bad-escape":       swap(`"mode":"spare"`, `"mode":"sp\xare"`),
		"raw-newline":      swap(`"mode":"spare"`, "\"mode\":\"sp\nare\""),
		"open-string":      good[:bytes.Index(good, []byte(`spare"`))+3],
	}
	c := openTestCache(t)
	k := goldenInput().Key()
	for name, payload := range cases {
		if e, err := decodeResultEntry(payload); err == nil {
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
	}
}

// A warm probe's decode costs the entry, its kernel string, its events and
// one array all their ranks share — interned modes, no heap object per field
// or per event — however many events the entry holds.
func TestDecodeResultEntryAllocations(t *testing.T) {
	payloads := sweepEntries(t)
	many := testEntry()
	many.Result.Recoveries = nil
	for i := range 32 { // the most events the decoder's stack scratch holds
		many.Result.Recoveries = append(many.Result.Recoveries, core.RecoveryEvent{
			Iteration: i, Ranks: []int{i, i + 1, i + 2, i + 3}, Mode: core.RecoverySpare,
		})
	}
	var err error
	if payloads["many-events"], err = json.Marshal(many); err != nil {
		t.Fatal(err)
	}
	for name, payload := range payloads {
		e, err := decodeResultEntry(payload)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The entry, Kernels, the event slice, the rank array.
		if got := testing.AllocsPerRun(100, func() { decodeResultEntry(payload) }); got > 4 {
			t.Errorf("%s: %v allocations per decode of a %d-event entry, want at most 4", name, got, len(e.Result.Recoveries))
		}
	}
}

// The events share one rank array, and each sees only its own ranks:
// appending to one event's ranks leaves the next event's alone, null stays
// nil and [] an empty non-nil slice, as encoding/json reads them.
func TestDecodeResultEntryRanksDoNotAlias(t *testing.T) {
	in := testEntry()
	in.Result.Recoveries = []core.RecoveryEvent{
		{Iteration: 1, Ranks: []int{1, 2}, Mode: core.RecoverySpare},
		{Iteration: 2, Ranks: []int{3}, Mode: core.RecoverySpare},
		{Iteration: 3, Ranks: nil, Mode: core.RecoveryRestart},
		{Iteration: 4, Ranks: []int{}, Mode: core.RecoveryShrink},
		{Iteration: 5, Ranks: []int{4}, Mode: core.RecoverySpare},
	}
	payload, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	e, err := decodeResultEntry(payload)
	if err != nil {
		t.Fatal(err)
	}
	ev := e.Result.Recoveries
	_ = append(ev[0].Ranks, 99)
	_ = append(ev[3].Ranks, 98)
	if !reflect.DeepEqual(ev[1].Ranks, []int{3}) || !reflect.DeepEqual(ev[4].Ranks, []int{4}) {
		t.Errorf("appending to one event's ranks wrote into another's: %v, %v", ev[1].Ranks, ev[4].Ranks)
	}
	if ev[2].Ranks != nil {
		t.Errorf(`"ranks":null decoded to %#v, want nil`, ev[2].Ranks)
	}
	if ev[3].Ranks == nil || len(ev[3].Ranks) != 0 {
		t.Errorf(`"ranks":[] decoded to %#v, want an empty non-nil slice`, ev[3].Ranks)
	}
	sameAsJSON(t, payload, e)
}

// FuzzDecodeResultEntry is the differential against encoding/json: any
// payload is an error or the value json.Unmarshal reads, never a panic, and
// what decodes is backed by input bytes (so allocation is bounded by the
// payload's length).
func FuzzDecodeResultEntry(f *testing.F) {
	for _, payload := range sweepEntries(f) {
		f.Add(payload)
		f.Add(payload[:len(payload)/2])
		f.Add(bytes.Replace(payload, []byte("×"), []byte("\xc3"), 1)) // broken UTF-8 in "kernels"
	}
	for _, s := range []string{
		``, `{}`, `null`, ` {"model":{}}`,
		`{"model":{"FlopTime":-0,"Latency":5e-324,"BytePeriod":1.7976931348623157e308,"Overhead":1E+2},"result":{"converged":false,"iterations":-9223372036854775808,"total_steps":9223372036854775807,"rel_residual":0.1,"sim_time_s":1e400,"recovery_time_s":0,"wasted_iters":0,"drift":0,"max_node_bytes":0,"halo_bytes":0,"bytes_sent":0,"active_nodes":0}}`,
		`{"model":{"FlopTime":0,"Latency":0,"BytePeriod":0,"Overhead":0},"result":{"converged":true,"iterations":0,"total_steps":0,"rel_residual":0,"sim_time_s":0,"recovery_time_s":0,"wasted_iters":0,"drift":0,"max_node_bytes":0,"halo_bytes":0,"bytes_sent":0,"active_nodes":0,"kernels":"\ud83d\ude00 \udead \u00e9 \/ {\"iteration\":","recoveries":[{"iteration":1,"ranks":null,"mode":"sp\u0061re","recovered_at":0,"wasted_iters":0,"spares_left":-1,"active_nodes":2},{"iteration":2,"ranks":[],"mode":"\xff","recovered_at":0,"wasted_iters":0,"spares_left":0,"active_nodes":0}]}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		got, err := decodeResultEntry(payload)
		if err != nil {
			if got != nil {
				t.Fatalf("an error (%v) and a value", err)
			}
			return
		}
		sameAsJSON(t, payload, got)
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
// It decodes through the cache without counting corrupt, frames back to the
// file's bytes, and re-costs under the result entry's machine to that entry's
// figures — which a live solve produced — and under a skewed machine to the
// bits the writing build computed.
func TestPinnedScheduleEntryRecost(t *testing.T) {
	file, err := os.ReadFile(filepath.Join("testdata", "sweep", "esr-shrink-skipped.sched"))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := unframe(bytes.Clone(file)) // DecodeSchedule may keep the payload
	if err != nil {
		t.Fatal(err)
	}
	c := openTestCache(t)
	s, ok := c.DecodeSchedule(payload)
	if !ok || c.Stats().Corrupt != 0 {
		t.Fatalf("the entry does not decode (corrupt %d)", c.Stats().Corrupt)
	}
	if s.Nodes != 8 || s.NumEvents() != pinnedEntryEvents {
		t.Errorf("decoded %d nodes, %d events; want 8, %d", s.Nodes, s.NumEvents(), pinnedEntryEvents)
	}
	if again, err := s.EncodeBinary(); err != nil || !bytes.Equal(frame(again), file) {
		t.Errorf("the entry is not what PutSchedule writes for its schedule today (err %v)", err)
	}

	entry, err := decodeResultEntry(sweepEntries(t)["esr-shrink-skipped.res"])
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
