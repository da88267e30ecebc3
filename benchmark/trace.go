package main

import (
	"time"

	"esrp/internal/obs"
)

// span is one interval the benchmark recorded around a call into a layer:
// its name, when it ran, and the span that caused it.
type span struct {
	id, parent int // parent -1: a root span
	name       string
	lane       int // driverLane or reenactLane
	start, end time.Duration
}

// Lanes of the Chrome trace: the calls the driver really makes, on the wall
// clock, and the layer re-enactment that attributes them.
const (
	driverLane = iota
	reenactLane
)

// tracer keeps the spans of one traced run in memory until the run ends. A
// nil tracer is tracing off: begin and end read no clock and record nothing,
// so the clean passes and the traced passes share one code path.
type tracer struct {
	workload string
	origin   time.Time
	spans    []span
	open     []int         // stack of open driver-lane span ids
	cursor   time.Duration // end of the last re-enactment span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

// parent is the innermost open span, or -1.
func (t *tracer) parent() int {
	if n := len(t.open); n > 0 {
		return t.open[n-1]
	}
	return -1
}

// begin opens a driver-lane span under the innermost open one and returns
// its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{id: id, parent: t.parent(), name: name, lane: driverLane, start: time.Since(t.origin)})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if id != t.parent() {
		panic("benchmark: spans closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].end = time.Since(t.origin)
}

// record adds one span to the re-enactment lane. That lane shows attributed
// time, not clock time: the re-enactment sums many short calls per layer and
// reports each sum as one span, laid end to end.
func (t *tracer) record(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{id: len(t.spans), parent: t.parent(), name: name, lane: reenactLane, start: t.cursor, end: t.cursor + d})
	t.cursor += d
}

// total sums the durations of the spans called name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	if t != nil {
		for i := range t.spans {
			if t.spans[i].name == name {
				d += t.spans[i].end - t.spans[i].start
			}
		}
	}
	return d
}

// hostTrace converts the spans into the repository's wall-clock trace form,
// whose WriteChrome emits Chrome trace_event JSON (open it in Perfetto or
// chrome://tracing): one thread per lane; each event's args carry the parent
// span, its name in "phase" and its position among the driver-lane events
// in "iter" (-1: a root span). The process name carries the workload and the
// environment stamp.
func (t *tracer) hostTrace(st stamp) *obs.HostTrace {
	ht := &obs.HostTrace{
		Process:     "benchmark " + t.workload + " (" + st.String() + ")",
		WallSeconds: time.Since(t.origin).Seconds(),
		Build:       obs.CurrentBuild(),
		Threads:     []obs.HostThread{{Name: "driver calls"}, {Name: "layer re-enactment"}},
	}
	driverIndex := map[int]int{-1: -1} // span id → position in the driver lane
	for i := range t.spans {
		if s := &t.spans[i]; s.lane == driverLane {
			driverIndex[s.id] = len(driverIndex) - 1
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		parent := "root"
		if s.parent >= 0 {
			parent = t.spans[s.parent].name
		}
		th := &ht.Threads[s.lane]
		th.Spans = append(th.Spans, obs.HostSpan{
			Name: s.name, Cat: layerOf(s.name),
			Start: s.start.Seconds(), End: s.end.Seconds(),
			Iter: driverIndex[s.parent], Phase: parent,
		})
	}
	return ht
}

// layerOf returns the package part of a span name such as "core.Solve".
func layerOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return "benchmark"
}
