package replay_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"esrp/internal/cluster"
	"esrp/internal/replay"
)

var updatePinned = flag.Bool("update-pinned", false, "rewrite testdata/pinned from this build (only for a deliberate wire-format or clock-arithmetic change)")

const pinnedDir = "testdata/pinned"

// pinnedRecost is testdata/pinned/<fixture>.json: the machine models a
// pinned schedule was re-costed under and what each re-cost returned, every
// float as its IEEE-754 bit pattern.
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

func pinReplayed(r *replay.Replayed) pinnedReplayed {
	p := pinnedReplayed{
		SimTime: math.Float64bits(r.SimTime), RecoveryTime: math.Float64bits(r.RecoveryTime),
		BytesSent: r.BytesSent, MsgsSent: r.MsgsSent, Events: r.Events,
		Clocks: make([]uint64, len(r.Clocks)), Envelopes: make([][][3]uint64, len(r.Envelopes)),
	}
	for g, c := range r.Clocks {
		p.Clocks[g] = math.Float64bits(c)
	}
	for g, spans := range r.Envelopes {
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
		BytesSent: p.BytesSent, MsgsSent: p.MsgsSent, Events: p.Events,
		Clocks: make([]float64, len(p.Clocks)), Envelopes: make([][]replay.EnvSpan, len(p.Envelopes)),
	}
	for g, c := range p.Clocks {
		r.Clocks[g] = math.Float64frombits(c)
	}
	for g, spans := range p.Envelopes {
		for _, sp := range spans {
			r.Envelopes[g] = append(r.Envelopes[g], replay.EnvSpan{Iter: int(sp[0]), Start: math.Float64frombits(sp[1]), End: math.Float64frombits(sp[2])})
		}
	}
	return r
}

// writePinned records every fixture with this build and writes its schedule
// and what it re-costs to under the default machine and two skewed ones.
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
		reps, err := sched.RecostAll(models)
		if err != nil {
			t.Fatal(err)
		}
		var pin pinnedRecost
		for j, m := range models {
			pin.Models = append(pin.Models, [4]uint64{math.Float64bits(m.FlopTime), math.Float64bits(m.Latency), math.Float64bits(m.BytePeriod), math.Float64bits(m.Overhead)})
			pin.Replayed = append(pin.Replayed, pinReplayed(reps[j]))
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

// The committed schedules — ESRPRPL1 bytes the build before the wire-bytes
// representation recorded, one per fixture — decode, re-encode to the same
// bytes, are what this build records, and re-cost under three machines to
// the committed figures bit for bit, batched and one model at a time.
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
			want := pin.Replayed[j].replayed()
			if d := diffReplayed(reps[j], want); d != "" {
				t.Errorf("%s model %d: RecostAll: %s", fx.name, j, d)
			}
			one, err := sched.Recost(m)
			if err != nil {
				t.Fatalf("%s model %d: %v", fx.name, j, err)
			}
			if d := diffReplayed(one, want); d != "" {
				t.Errorf("%s model %d: Recost: %s", fx.name, j, d)
			}
		}
	}
}
