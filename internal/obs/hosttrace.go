package obs

import (
	"encoding/json"
	"io"
)

// HostTrace is a wall-clock execution trace of the *host* machine — the
// counterpart of Trace, whose timelines run on the simulated LogGP clock.
// internal/hostobs builds one from a campaign recorder: one thread per
// host worker, one span per solved cell. It serializes through
// the same trace_event writer machinery as Trace, so a simulated-clock
// trace and the wall-clock trace of the same campaign open side by side
// in Perfetto and pass the same ValidateChromeTrace check.
type HostTrace struct {
	Process     string // process_name shown in the viewer
	WallSeconds float64
	Build       BuildInfo
	Threads     []HostThread
}

// HostThread is one host worker's timeline.
type HostThread struct {
	Name  string
	Spans []HostSpan
}

// HostSpan is one wall-clock interval. Start/End are seconds from the
// trace origin; Iter and Phase land in the event args (Iter carries the
// cell index).
type HostSpan struct {
	Name  string
	Cat   string
	Start float64
	End   float64
	Iter  int
	Phase string
}

// WriteChrome emits the host trace as Chrome trace_event JSON in the same
// object form as Trace.WriteChrome. Byte-deterministic for a given trace.
func (t *HostTrace) WriteChrome(w io.Writer) error {
	bw := &errWriter{w: w}
	bw.puts(`{"displayTimeUnit":"ms","otherData":`)
	meta, err := json.Marshal(struct {
		WallSeconds float64 `json:"wall_seconds"`
		Workers     int     `json:"workers"`
		GoVersion   string  `json:"go_version"`
		Revision    string  `json:"vcs_revision,omitempty"`
	}{t.WallSeconds, len(t.Threads), t.Build.GoVersion, t.Build.Revision})
	if err != nil {
		return err
	}
	bw.put(meta)
	bw.puts(`,"traceEvents":[`)

	first := true
	emit := func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			bw.err = err
			return
		}
		if !first {
			bw.puts(",\n")
		} else {
			bw.puts("\n")
			first = false
		}
		bw.put(b)
	}

	emit(chromeMeta{Name: "process_name", Ph: "M", Pid: 0, Tid: 0,
		Args: chromeMetaArgs{Name: t.Process}})
	for tid, th := range t.Threads {
		emit(chromeMeta{Name: "thread_name", Ph: "M", Pid: 0, Tid: tid,
			Args: chromeMetaArgs{Name: th.Name}})
	}
	for tid, th := range t.Threads {
		for _, s := range th.Spans {
			emit(chromeSpan{
				Name: s.Name,
				Cat:  s.Cat,
				Ph:   "X",
				Ts:   s.Start * usPerSec,
				Dur:  (s.End - s.Start) * usPerSec,
				Pid:  0,
				Tid:  tid,
				Args: chromeArgs{Iter: s.Iter, Phase: s.Phase},
			})
		}
	}
	bw.puts("\n]}\n")
	return bw.err
}
