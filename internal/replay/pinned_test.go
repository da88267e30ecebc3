package replay_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"esrp/internal/cluster"
	"esrp/internal/obs"
	"esrp/internal/replay"
)

var updatePinned = flag.Bool("update-pinned", false, "rewrite testdata/pinned from this build (only for a deliberate wire-format or clock-arithmetic change)")

const pinnedDir = "testdata/pinned"

// pinnedRecost is testdata/pinned/<fixture>.json: the machine models a
// pinned schedule was re-costed under, what each re-cost returned, the
// schedule's event count and the recovery envelopes of its traced walk under
// each model, every float as its IEEE-754 bit pattern.
type pinnedRecost struct {
	Models   [][4]uint64      `json:"models"` // FlopTime, Latency, BytePeriod, Overhead
	Replayed []pinnedReplayed `json:"replayed"`
}

type pinnedReplayed struct {
	SimTime      uint64        `json:"sim_time"`
	RecoveryTime uint64        `json:"recovery_time"`
	BytesSent    int64         `json:"bytes_sent"`
	MsgsSent     int64         `json:"msgs_sent"`
	Events       int           `json:"events"`
	Clocks       []uint64      `json:"clocks"`
	Envelopes    [][][3]uint64 `json:"envelopes"` // per rank: iter, start, end
}

// pinReplayed pins one model's re-cost, the schedule's event count and the
// envelopes of the traced walk under the same model.
func pinReplayed(r *replay.Replayed, events int, envs [][]obs.Span) pinnedReplayed {
	p := pinnedReplayed{
		SimTime: math.Float64bits(r.SimTime), RecoveryTime: math.Float64bits(r.RecoveryTime),
		BytesSent: r.BytesSent, MsgsSent: r.MsgsSent, Events: events,
		Clocks: make([]uint64, len(r.Clocks)), Envelopes: make([][][3]uint64, len(envs)),
	}
	for g, c := range r.Clocks {
		p.Clocks[g] = math.Float64bits(c)
	}
	for g, spans := range envs {
		p.Envelopes[g] = make([][3]uint64, len(spans))
		for i, sp := range spans {
			p.Envelopes[g][i] = [3]uint64{uint64(sp.Iter), math.Float64bits(sp.Start), math.Float64bits(sp.End)}
		}
	}
	return p
}

func (p pinnedReplayed) replayed() *replay.Replayed {
	r := &replay.Replayed{
		SimTime: math.Float64frombits(p.SimTime), RecoveryTime: math.Float64frombits(p.RecoveryTime),
		BytesSent: p.BytesSent, MsgsSent: p.MsgsSent, Clocks: make([]float64, len(p.Clocks)),
	}
	for g, c := range p.Clocks {
		r.Clocks[g] = math.Float64frombits(c)
	}
	return r
}

// writePinned records every fixture with this build and writes its schedule
// and what it re-costs and traces to under the default machine and two
// skewed ones.
func writePinned(t *testing.T) {
	d := cluster.DefaultCostModel()
	models := []replay.CostModel{
		d,
		{FlopTime: d.FlopTime / 2, Latency: d.Latency * 8, BytePeriod: d.BytePeriod * 3, Overhead: d.Overhead / 4},
		{FlopTime: d.FlopTime * 4, Latency: d.Latency / 8, BytePeriod: d.BytePeriod / 2, Overhead: d.Overhead * 2},
	}
	if err := os.MkdirAll(pinnedDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, fx := range fixtures() {
		_, sched := record(t, fx, shortIters)
		data, err := sched.EncodeBinary()
		if err != nil {
			t.Fatal(err)
		}
		var pin pinnedRecost
		for _, m := range models {
			rep, tr, err := sched.Trace(m, obs.Options{Trace: true}, nil)
			if err != nil {
				t.Fatal(err)
			}
			pin.Models = append(pin.Models, [4]uint64{math.Float64bits(m.FlopTime), math.Float64bits(m.Latency), math.Float64bits(m.BytePeriod), math.Float64bits(m.Overhead)})
			pin.Replayed = append(pin.Replayed, pinReplayed(rep, sched.NumEvents(), tr.Envelopes))
		}
		js, err := json.Marshal(pin)
		if err != nil {
			t.Fatal(err)
		}
		for name, content := range map[string][]byte{fx.name + ".sched": data, fx.name + ".json": append(js, '\n')} {
			if err := os.WriteFile(filepath.Join(pinnedDir, name), content, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// The committed schedules — one per fixture, in ESRPRPL3 — decode,
// re-encode to the same bytes, are what this build records, and re-cost
// under three machines to the committed figures, bit for bit, batched, one
// model at a time and traced; the traced walk under each machine keeps the
// committed recovery envelopes, and the schedule holds the committed event
// count. But for the event counts, which ESRPRPL3's span markers raised, the
// figures are those the ESRPRPL1 schedules of an earlier build re-costed to.
func TestPinnedSchedulesRecost(t *testing.T) {
	if *updatePinned {
		writePinned(t)
	}
	for _, fx := range fixtures() {
		data, err := os.ReadFile(filepath.Join(pinnedDir, fx.name+".sched"))
		if err != nil {
			t.Fatal(err)
		}
		js, err := os.ReadFile(filepath.Join(pinnedDir, fx.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var pin pinnedRecost
		if err := json.Unmarshal(js, &pin); err != nil {
			t.Fatalf("%s.json: %v", fx.name, err)
		}
		if len(pin.Models) != 3 || len(pin.Replayed) != len(pin.Models) {
			t.Fatalf("%s.json pins %d models and %d results, want 3 of each", fx.name, len(pin.Models), len(pin.Replayed))
		}
		models := make([]replay.CostModel, len(pin.Models))
		for j, m := range pin.Models {
			models[j] = replay.CostModel{
				FlopTime: math.Float64frombits(m[0]), Latency: math.Float64frombits(m[1]),
				BytePeriod: math.Float64frombits(m[2]), Overhead: math.Float64frombits(m[3]),
			}
		}

		// DecodeBinary may keep the buffer it is handed; the comparisons below
		// read the file's bytes from a copy it never saw.
		sched, err := replay.DecodeBinary(bytes.Clone(data))
		if err != nil {
			t.Fatalf("%s.sched: %v", fx.name, err)
		}
		if again, err := sched.EncodeBinary(); err != nil || !bytes.Equal(again, data) {
			t.Errorf("%s.sched does not re-encode to its own bytes (err %v)", fx.name, err)
		}
		_, recorded := record(t, fx, shortIters)
		if now, err := recorded.EncodeBinary(); err != nil || !bytes.Equal(now, data) {
			t.Errorf("%s.sched is not what this build records (err %v)", fx.name, err)
		}
		reps, err := sched.RecostAll(models)
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		for j, m := range models {
			want := pin.Replayed[j]
			one, err := sched.Recost(m)
			if err != nil {
				t.Fatalf("%s model %d: %v", fx.name, j, err)
			}
			traced, tr, err := sched.Trace(m, obs.Options{Trace: true}, nil)
			if err != nil {
				t.Fatalf("%s model %d: Trace: %v", fx.name, j, err)
			}
			for name, got := range map[string]*replay.Replayed{"RecostAll": &reps[j], "Recost": one, "Trace": traced} {
				if d := diffReplayed(got, want.replayed()); d != "" {
					t.Errorf("%s model %d: %s: %s", fx.name, j, name, d)
				}
			}
			if got := pinReplayed(traced, sched.NumEvents(), tr.Envelopes); got.Events != want.Events || !reflect.DeepEqual(got.Envelopes, want.Envelopes) {
				t.Errorf("%s model %d: %d events and traced envelopes %v, pinned %d and %v", fx.name, j, got.Events, got.Envelopes, want.Events, want.Envelopes)
			}
		}
	}
}
