// Package obs is the solver's observability substrate: per-rank span
// timelines and per-iteration metric series recorded on the *simulated*
// LogGP clock (internal/cluster), not the host clock. A span is a
// half-open interval [Start, End) of one rank's simulated time attributed
// to one activity kind — a compute phase, a communication slot, or a
// resilience action — so the trace explains where the modeled runtime of
// a solve went, iteration by iteration and failure by failure.
//
// The layer is zero-overhead when disabled: every hot-path entry point is
// a method on *Rank that nil-checks its receiver, and a solve without a
// Recorder carries nil Ranks everywhere. With recording enabled the data
// model stays deterministic: each rank's buffer is written only by that
// rank's goroutine, all timestamps come from the deterministic simulated
// clock, and export walks ranks in ascending order — the same seed and
// configuration therefore produce byte-identical trace files.
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

// IterPoint is one sample of the per-iteration metric series, recorded by
// the communicator's rank 0 at the end of each productive loop iteration.
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

// Options selects what a Recorder captures.
type Options struct {
	// Trace records per-rank span timelines.
	Trace bool
	// Series records the per-iteration metric series on the
	// communicator's rank 0, the solve's residual history.
	Series bool
}

// enabled reports whether the options ask for any recording at all.
func (o Options) enabled() bool { return o.Trace || o.Series }

// Enabled reports whether o asks for any recording (nil-safe).
func (o *Options) Enabled() bool { return o != nil && o.enabled() }

// Recorder owns the per-rank recording buffers of one solve. Each rank's
// buffer is handed to that rank's goroutine (Rank) and written only
// there; Build runs after the solve, single-threaded.
type Recorder struct {
	opts  Options
	ranks []*Rank
}

// NewRecorder returns a recorder for an n-node solve.
func NewRecorder(opts Options, n int) *Recorder {
	rec := &Recorder{opts: opts, ranks: make([]*Rank, n)}
	for g := range rec.ranks {
		rec.ranks[g] = &Rank{
			rank:   g,
			iter:   -1,
			spans:  opts.Trace,
			series: opts.Series,
		}
	}
	return rec
}

// Rank returns global rank g's recording buffer. Nil-safe: a nil Recorder
// yields a nil *Rank, whose methods are all no-ops — the disabled path.
func (rec *Recorder) Rank(g int) *Rank {
	if rec == nil {
		return nil
	}
	return rec.ranks[g]
}

// Rank is one rank's recording buffer. All recording methods nil-check the
// receiver so instrumentation sites need no guards of their own; only the
// owning rank's goroutine may call them during a run.
type Rank struct {
	rank   int
	spans  bool
	series bool

	iter  int
	phase Phase

	buf    []Span
	env    []Span // KindRecovery envelopes, kept apart from the leaves
	points []IterPoint
}

// SetIter sets the iteration subsequent spans are attributed to.
func (rk *Rank) SetIter(j int) {
	if rk == nil {
		return
	}
	rk.iter = j
}

// SetPhase sets the phase subsequent spans are attributed to.
func (rk *Rank) SetPhase(p Phase) {
	if rk == nil {
		return
	}
	rk.phase = p
}

// Span records one leaf interval [start, end) of the rank's simulated
// timeline under the current iteration and phase. Zero-length spans are
// dropped; a span abutting the previous one with identical attribution is
// coalesced into it, keeping steady-state buffers compact.
func (rk *Rank) Span(kind Kind, start, end float64) {
	if rk == nil || !rk.spans || end <= start {
		return
	}
	if n := len(rk.buf); n > 0 {
		last := &rk.buf[n-1]
		if last.Kind == kind && last.Iter == rk.iter && last.Phase == rk.phase && last.End == start {
			last.End = end
			return
		}
	}
	rk.buf = append(rk.buf, Span{Kind: kind, Phase: rk.phase, Iter: rk.iter, Start: start, End: end})
}

// Envelope records the per-failure-event KindRecovery envelope enclosing
// the event's leaf spans. iter is the iteration the failure struck.
func (rk *Rank) Envelope(iter int, start, end float64) {
	if rk == nil || !rk.spans || end <= start {
		return
	}
	rk.env = append(rk.env, Span{Kind: KindRecovery, Phase: PhaseRecovery, Iter: iter, Start: start, End: end})
}

// Point appends one sample to the per-iteration series. Every buffer has
// the series enabled with Options.Series; the caller records only on the
// communicator's rank 0.
func (rk *Rank) Point(step, iter int, relres, clock float64, bytes, msgs int64) {
	if rk == nil || !rk.series {
		return
	}
	rk.points = append(rk.points, IterPoint{
		Step: step, Iter: iter, RelRes: relres,
		Clock: clock, Bytes: bytes, Msgs: msgs,
	})
}

// Build assembles the immutable Trace after the run completed. simTime is
// the solve's modeled runtime (max simulated clock over ranks).
//
// The series is the buffers' points concatenated in global-rank order, and
// markWasted reads it as chronological. Callers keep that true: points
// recorded by a lower global rank come before any a higher one records.
// The solver does, because the communicator's rank-0 role only ever moves
// to a higher global rank (a shrink keeps the survivors' order).
func (rec *Recorder) Build(simTime float64) *Trace {
	t := &Trace{
		Nodes:     len(rec.ranks),
		SimTime:   simTime,
		Ranks:     make([][]Span, len(rec.ranks)),
		Envelopes: make([][]Span, len(rec.ranks)),
		Build:     CurrentBuild(),
	}
	for g, rk := range rec.ranks {
		t.Ranks[g] = rk.buf
		t.Envelopes[g] = rk.env
		t.Series = append(t.Series, rk.points...)
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
