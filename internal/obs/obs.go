// Package obs is the solver's observability substrate: per-rank span
// timelines and per-iteration metric series recorded on the *simulated*
// LogGP clock (internal/cluster), not the host clock. A span is a
// half-open interval [Start, End) of one rank's simulated time attributed
// to one activity kind — a compute phase, a communication slot, or a
// resilience action — so the trace explains where the modeled runtime of
// a solve went, iteration by iteration and failure by failure.
//
// The solver writes nothing here while it runs. A trace is a view of the
// solve's recorded event schedule (internal/replay): the walk that re-costs
// the schedule under the solve's machine model hands each event's interval
// to a Builder, attributed by the Compute work, region, iteration and
// envelope markers the schedule carries. The schedule fixes every clock bit,
// and export walks ranks in ascending order, so the same seed and
// configuration produce byte-identical trace files.
package obs

// Kind identifies the activity a span measures.
type Kind uint8

// Span kinds. All kinds except KindRecovery are "leaf" kinds: their spans
// are disjoint on a rank's timeline and sum to (almost all of) the rank's
// simulated clock. KindRecovery is an envelope — one span per handled
// failure event enclosing the detection, gather, reconstruction and
// restore leaves — and is excluded from coverage sums.
const (
	// KindVec covers fused vector kernels and local dot-product sweeps.
	KindVec Kind = iota
	// KindPrecond covers preconditioner applications.
	KindPrecond
	// KindSpMV covers the whole local sparse product when the halo
	// exchange is blocking (no interior/boundary split).
	KindSpMV
	// KindSpMVInterior covers the interior-rows product overlapping the
	// in-flight halo exchange.
	KindSpMVInterior
	// KindSpMVBoundary covers the boundary-rows product after the halo
	// arrived.
	KindSpMVBoundary
	// KindHaloPost covers posting the halo exchange (send overheads).
	KindHaloPost
	// KindHaloWait covers waiting for the in-flight halo at Finish.
	KindHaloWait
	// KindAllreduce covers allreduce/barrier collectives.
	KindAllreduce
	// KindBcast covers broadcasts.
	KindBcast
	// KindGather covers gathers.
	KindGather
	// KindCheckpoint covers checkpoint shipment: IMCR buddy exchanges,
	// including the re-ship after a recovery.
	KindCheckpoint
	// KindRecoverGather covers post-failure state retrieval: redundant-copy
	// and iterand-halo gathers (ESR/ESRP) or checkpoint restores (IMCR).
	KindRecoverGather
	// KindReconstruct covers the local reconstruction arithmetic of
	// Alg. 2 (lines 4-7) on replacement nodes.
	KindReconstruct
	// KindInnerSolve covers the compute of the inner-system PCG
	// (Alg. 2 line 8); its collectives and halo traffic appear as the
	// usual communication kinds within the recovery phase.
	KindInnerSolve
	// KindDetect covers the modeled failure-detection charge
	// (core.Config.DetectionTime).
	KindDetect
	// KindRecovery is the per-failure-event envelope span (not a leaf).
	KindRecovery

	kindCount
)

var kindNames = [kindCount]string{
	"vec", "precond", "spmv", "spmv_interior", "spmv_boundary",
	"halo_post", "halo_wait", "allreduce", "bcast", "gather",
	"checkpoint", "recover_gather", "reconstruct", "inner_solve",
	"detect", "recovery",
}

var kindCats = [kindCount]string{
	"compute", "compute", "compute", "compute", "compute",
	"comm", "comm", "comm", "comm", "comm",
	"resilience", "resilience", "compute", "compute",
	"resilience", "resilience",
}

// String returns the span name used in trace exports.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Category returns the trace category ("compute", "comm", "resilience").
func (k Kind) Category() string {
	if int(k) < len(kindCats) {
		return kindCats[k]
	}
	return "unknown"
}

// Leaf reports whether spans of this kind count toward timeline coverage
// (everything except the KindRecovery envelope).
func (k Kind) Leaf() bool { return k != KindRecovery }

// Phase tags a span with the solver's coarse mode at record time.
type Phase uint8

// Phases.
const (
	// PhaseSteady is normal iteration (checkpoint writes included — they
	// carry their own kind).
	PhaseSteady Phase = iota
	// PhaseRecovery spans the handling of one failure event, from
	// detection to the restored scalars.
	PhaseRecovery
)

// String returns the phase name used in trace exports.
func (p Phase) String() string {
	if p == PhaseRecovery {
		return "recovery"
	}
	return "steady"
}

// Span is one attributed interval of a rank's simulated timeline.
type Span struct {
	Kind  Kind
	Phase Phase
	Iter  int // solver iteration the span belongs to (-1 = outside the loop)
	Start float64
	End   float64
}

// Dur returns the span length in simulated seconds.
func (s Span) Dur() float64 { return s.End - s.Start }

// IterPoint is one sample of the per-iteration metric series, taken by the
// communicator's rank 0 at the end of each productive loop iteration.
// The series is the solve's one residual record: when a no-spare shrink
// retires rank 0, the lowest surviving rank takes the role over and the
// series goes on. Clock, Bytes and Msgs are cumulative and the recording
// rank's own counters (deterministic, unlike the machine-wide totals
// mid-run); deltas are derived at export, so at a hand-off the byte and
// message deltas can be negative. Wasted is filled when the trace is
// built: a point is wasted when a later rollback re-ran its iteration.
type IterPoint struct {
	Step   int     `json:"step"`   // loop step index (counts rolled-back work)
	Iter   int     `json:"iter"`   // trajectory iteration the step completed
	RelRes float64 `json:"relres"` // relative recurrence residual
	Clock  float64 `json:"clock"`  // recording rank's simulated clock, cumulative seconds
	Bytes  int64   `json:"bytes"`  // recording rank's payload bytes sent, cumulative
	Msgs   int64   `json:"msgs"`   // recording rank's messages sent, cumulative
	Wasted bool    `json:"wasted"` // discarded by a later rollback
}

// Options selects what a trace keeps.
type Options struct {
	// Trace records per-rank span timelines.
	Trace bool
	// Series records the per-iteration metric series on the
	// communicator's rank 0, the solve's residual history.
	Series bool
}

// Enabled reports whether o asks for anything (nil-safe).
func (o *Options) Enabled() bool { return o != nil && (o.Trace || o.Series) }

// Builder assembles a Trace from what a walk of a recorded schedule derives
// (replay.Schedule.Trace): per rank, its leaf spans in time order, its
// recovery envelopes and its series points. It applies the recording rule
// of the timeline: zero-length spans are dropped, and a span abutting the
// rank's previous one with equal kind, iteration and phase extends it, which
// keeps steady-state timelines compact.
type Builder struct {
	opts   Options
	spans  [][]Span
	env    [][]Span // KindRecovery envelopes, kept apart from the leaves
	points [][]IterPoint
}

// NewBuilder returns a builder for an n-rank trace that keeps what opts
// asks for: spans and envelopes with Trace, series points with Series.
func NewBuilder(opts Options, n int) *Builder {
	return &Builder{opts: opts, spans: make([][]Span, n), env: make([][]Span, n), points: make([][]IterPoint, n)}
}

// Span appends leaf span s to rank g's timeline, or extends the last one.
func (b *Builder) Span(g int, s Span) {
	if !b.opts.Trace || s.End <= s.Start {
		return
	}
	spans := b.spans[g]
	if n := len(spans); n > 0 {
		last := &spans[n-1]
		if last.Kind == s.Kind && last.Iter == s.Iter && last.Phase == s.Phase && last.End == s.Start {
			last.End = s.End
			return
		}
	}
	b.spans[g] = append(spans, s)
}

// Envelope records rank g's KindRecovery envelope of the failure that
// struck iteration iter, enclosing the event's leaf spans.
func (b *Builder) Envelope(g, iter int, start, end float64) {
	if !b.opts.Trace || end <= start {
		return
	}
	b.env[g] = append(b.env[g], Span{Kind: KindRecovery, Phase: PhaseRecovery, Iter: iter, Start: start, End: end})
}

// Point appends one sample to rank g's part of the series.
func (b *Builder) Point(g int, p IterPoint) {
	if b.opts.Series {
		b.points[g] = append(b.points[g], p)
	}
}

// Build assembles the immutable Trace. simTime is the solve's modeled
// runtime (max simulated clock over ranks).
//
// The series is the ranks' points concatenated in global-rank order, and
// markWasted reads it as chronological. That holds for a solve: the
// communicator's rank-0 role only ever moves to a higher global rank (a
// shrink keeps the survivors' order), so points of a lower global rank come
// before any a higher one samples.
func (b *Builder) Build(simTime float64) *Trace {
	t := &Trace{
		Nodes:     len(b.spans),
		SimTime:   simTime,
		Ranks:     b.spans,
		Envelopes: b.env,
		Build:     CurrentBuild(),
	}
	for _, pts := range b.points {
		t.Series = append(t.Series, pts...)
	}
	markWasted(t.Series)
	return t
}

// markWasted flags series points discarded by a later rollback: point k is
// wasted iff some strictly later point re-ran an iteration ≤ its own. One
// reverse sweep over the running minimum of later iterations suffices.
func markWasted(points []IterPoint) {
	minLater := int(^uint(0) >> 1) // max int
	for k := len(points) - 1; k >= 0; k-- {
		points[k].Wasted = points[k].Iter >= minLater
		if points[k].Iter < minLater {
			minLater = points[k].Iter
		}
	}
}
