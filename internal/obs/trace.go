package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
)

// Trace is the structured observability record of one solve: the per-rank
// span timelines, the recovery envelopes, the per-iteration series, and
// the build metadata of the binary that produced it. All times are
// simulated seconds (internal/cluster's LogGP clock).
type Trace struct {
	Nodes     int
	SimTime   float64  // modeled runtime: max simulated clock over ranks
	Ranks     [][]Span // leaf spans per global rank, in time order
	Envelopes [][]Span // KindRecovery envelopes per global rank
	Series    []IterPoint
	Build     BuildInfo
}

// Totals sums leaf span time per kind over all ranks.
func (t *Trace) Totals() map[Kind]float64 {
	totals := make(map[Kind]float64, int(kindCount))
	for _, spans := range t.Ranks {
		for _, s := range spans {
			totals[s.Kind] += s.Dur()
		}
	}
	return totals
}

// CheckTiling names the first place where spans fail to tile a rank's
// timeline, nil if none: from 0, each non-empty span starts where the one
// before it ended, and the latest end is SimTime, all under ==.
func (t *Trace) CheckTiling() error {
	latest := 0.0
	for g, spans := range t.Ranks {
		at := 0.0
		for i, s := range spans {
			if s.Start != at || !(s.End > s.Start) {
				return fmt.Errorf("obs: rank %d: span %d (%v) runs [%v, %v), want a start at %v and a later end", g, i, s.Kind, s.Start, s.End, at)
			}
			at = s.End
		}
		latest = max(latest, at)
	}
	if latest != t.SimTime {
		return fmt.Errorf("obs: the latest span ends at %v, SimTime is %v", latest, t.SimTime)
	}
	return nil
}

// RecoveryStat condenses one failure event's recovery cost out of the
// envelope spans: the modeled time is the longest envelope over ranks
// (recovery is a collective episode; the slowest participant defines it).
type RecoveryStat struct {
	Iter  int     // iteration the failure struck
	Time  float64 // max envelope duration over ranks, simulated seconds
	Ranks int     // ranks that recorded an envelope for this event
}

// RecoveryStats groups the recovery envelopes by failure iteration, in
// timeline order.
func (t *Trace) RecoveryStats() []RecoveryStat {
	byIter := make(map[int]*RecoveryStat)
	var order []int
	for _, spans := range t.Envelopes {
		for _, s := range spans {
			st, ok := byIter[s.Iter]
			if !ok {
				st = &RecoveryStat{Iter: s.Iter}
				byIter[s.Iter] = st
				order = append(order, s.Iter)
			}
			st.Ranks++
			if d := s.Dur(); d > st.Time {
				st.Time = d
			}
		}
	}
	sort.Ints(order)
	out := make([]RecoveryStat, 0, len(order))
	for _, it := range order {
		out = append(out, *byIter[it])
	}
	return out
}

// chromeSpan is one complete ("X") trace_event. Field order is the
// serialization order, which encoding/json keeps stable — part of the
// byte-determinism contract of WriteChrome.
type chromeSpan struct {
	Name string     `json:"name"`
	Cat  string     `json:"cat"`
	Ph   string     `json:"ph"`
	Ts   float64    `json:"ts"`  // microseconds
	Dur  float64    `json:"dur"` // microseconds
	Pid  int        `json:"pid"`
	Tid  int        `json:"tid"`
	Args chromeArgs `json:"args"`
}

type chromeArgs struct {
	Iter  int    `json:"iter"`
	Phase string `json:"phase"`
}

// chromeMeta is one metadata ("M") event naming the process or a thread.
type chromeMeta struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args chromeMetaArgs `json:"args"`
}

type chromeMetaArgs struct {
	Name string `json:"name"`
}

// chromeCounter is one counter ("C") event carrying the residual series.
type chromeCounter struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args counterRelArgs `json:"args"`
}

type counterRelArgs struct {
	RelRes float64 `json:"relres"`
}

const usPerSec = 1e6 // simulated seconds → trace_event microseconds

// WriteChrome emits the trace as Chrome trace_event JSON (the object
// form, with "traceEvents"), viewable in Perfetto / chrome://tracing.
// The simulated cluster appears as one process, each rank as one thread;
// recovery envelopes nest around their leaf spans. Output is
// byte-deterministic for a given trace.
func (t *Trace) WriteChrome(w io.Writer) error {
	other := struct {
		SimTime   float64 `json:"sim_time_seconds"`
		Nodes     int     `json:"nodes"`
		GoVersion string  `json:"go_version"`
		Revision  string  `json:"vcs_revision,omitempty"`
	}{t.SimTime, t.Nodes, t.Build.GoVersion, t.Build.Revision}
	return writeChrome(w, other, func(emit func(any)) {
		emit(chromeMeta{Name: "process_name", Ph: "M", Pid: 0, Tid: 0,
			Args: chromeMetaArgs{Name: "esrp simulated cluster"}})
		for g := 0; g < t.Nodes; g++ {
			emit(chromeMeta{Name: "thread_name", Ph: "M", Pid: 0, Tid: g,
				Args: chromeMetaArgs{Name: "rank " + strconv.Itoa(g)}})
		}
		for g := 0; g < t.Nodes; g++ {
			// Envelopes first: at equal start timestamps the enclosing event
			// must precede its children for viewers that resolve nesting by
			// order, and a fixed order keeps the bytes deterministic.
			for _, s := range t.Envelopes[g] {
				emit(spanEvent(g, s))
			}
			for _, s := range t.Ranks[g] {
				emit(spanEvent(g, s))
			}
		}
		for _, p := range t.Series {
			emit(chromeCounter{Name: "relres", Ph: "C", Ts: p.Clock * usPerSec,
				Pid: 0, Tid: 0, Args: counterRelArgs{RelRes: p.RelRes}})
		}
	})
}

// writeChrome writes the object form both traces share: otherData, then
// the events that events emits, one per line.
func writeChrome(w io.Writer, other any, events func(emit func(any))) error {
	bw := &errWriter{w: w}
	bw.puts(`{"displayTimeUnit":"ms","otherData":`)
	meta, err := json.Marshal(other)
	if err != nil {
		return err
	}
	bw.put(meta)
	bw.puts(`,"traceEvents":[`)
	sep := "\n"
	events(func(v any) {
		b, err := json.Marshal(v)
		if err != nil {
			bw.err = err
			return
		}
		bw.puts(sep)
		bw.put(b)
		sep = ",\n"
	})
	bw.puts("\n]}\n")
	return bw.err
}

func spanEvent(rank int, s Span) chromeSpan {
	return chromeSpan{
		Name: s.Kind.String(),
		Cat:  s.Kind.Category(),
		Ph:   "X",
		Ts:   s.Start * usPerSec,
		Dur:  s.Dur() * usPerSec,
		Pid:  0,
		Tid:  rank,
		Args: chromeArgs{Iter: s.Iter, Phase: s.Phase.String()},
	}
}

// WriteChromeFile writes a Trace's or a HostTrace's Chrome trace_event JSON
// to path once ValidateChromeTrace, the check the CI gate runs, accepts it.
func WriteChromeFile(path string, t interface{ WriteChrome(io.Writer) error }) error {
	var buf bytes.Buffer
	if err := t.WriteChrome(&buf); err != nil {
		return err
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// errWriter latches the first write error so emission code stays linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) put(b []byte) {
	if ew.err == nil {
		_, ew.err = ew.w.Write(b)
	}
}

func (ew *errWriter) puts(s string) { ew.put([]byte(s)) }

// ValidateChromeTrace checks data against the Chrome trace_event schema
// subset this package emits: a JSON object with a non-empty "traceEvents"
// array whose events carry a name and a known phase, complete events
// carrying non-negative ts/dur and a thread id. It is the validation the
// CI observability job and esrpsolve's self-check run; no external schema
// tooling is required.
func ValidateChromeTrace(data []byte) error {
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("obs: trace is not valid JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("obs: trace has no traceEvents")
	}
	for i, raw := range doc.TraceEvents {
		var ev struct {
			Name *string  `json:"name"`
			Ph   *string  `json:"ph"`
			Ts   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
			Pid  *int     `json:"pid"`
			Tid  *int     `json:"tid"`
		}
		if err := json.Unmarshal(raw, &ev); err != nil {
			return fmt.Errorf("obs: event %d: %w", i, err)
		}
		if ev.Name == nil || *ev.Name == "" {
			return fmt.Errorf("obs: event %d: missing name", i)
		}
		if ev.Ph == nil {
			return fmt.Errorf("obs: event %d (%s): missing ph", i, *ev.Name)
		}
		switch *ev.Ph {
		case "X":
			if ev.Ts == nil || *ev.Ts < 0 {
				return fmt.Errorf("obs: event %d (%s): complete event needs ts ≥ 0", i, *ev.Name)
			}
			if ev.Dur == nil || *ev.Dur < 0 {
				return fmt.Errorf("obs: event %d (%s): complete event needs dur ≥ 0", i, *ev.Name)
			}
			if ev.Tid == nil {
				return fmt.Errorf("obs: event %d (%s): complete event needs tid", i, *ev.Name)
			}
		case "M":
			if *ev.Name != "process_name" && *ev.Name != "thread_name" {
				return fmt.Errorf("obs: event %d: unknown metadata event %q", i, *ev.Name)
			}
		case "C":
			if ev.Ts == nil || *ev.Ts < 0 {
				return fmt.Errorf("obs: event %d (%s): counter event needs ts ≥ 0", i, *ev.Name)
			}
		default:
			return fmt.Errorf("obs: event %d (%s): unsupported phase %q", i, *ev.Name, *ev.Ph)
		}
	}
	return nil
}

// WriteSeriesCSV emits the per-iteration series as CSV with cumulative
// and delta columns. Deterministic for a given trace.
func (t *Trace) WriteSeriesCSV(w io.Writer) error {
	bw := &errWriter{w: w}
	bw.puts("step,iter,relres,clock,clock_delta,bytes,bytes_delta,msgs,msgs_delta,wasted\n")
	prevClock := 0.0
	var prevBytes, prevMsgs int64
	for _, p := range t.Series {
		wasted := "0"
		if p.Wasted {
			wasted = "1"
		}
		bw.puts(strconv.Itoa(p.Step) + "," + strconv.Itoa(p.Iter) + "," +
			strconv.FormatFloat(p.RelRes, 'g', -1, 64) + "," +
			strconv.FormatFloat(p.Clock, 'g', -1, 64) + "," +
			strconv.FormatFloat(p.Clock-prevClock, 'g', -1, 64) + "," +
			strconv.FormatInt(p.Bytes, 10) + "," + strconv.FormatInt(p.Bytes-prevBytes, 10) + "," +
			strconv.FormatInt(p.Msgs, 10) + "," + strconv.FormatInt(p.Msgs-prevMsgs, 10) + "," +
			wasted + "\n")
		prevClock, prevBytes, prevMsgs = p.Clock, p.Bytes, p.Msgs
	}
	return bw.err
}

// WriteSeriesJSON emits the per-iteration series as a JSON array of
// IterPoint objects.
func (t *Trace) WriteSeriesJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Series)
}
