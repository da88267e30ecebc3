// Package replay records one solve's abstract event schedule and re-costs
// it under arbitrary machine parameters in O(events), without re-running
// any numeric work.
//
// The LogGP clock of internal/cluster is pure arithmetic applied to a fixed
// communication schedule: which events a solve executes — every Compute,
// point-to-point message, collective, and recovery section — depends only
// on (matrix, strategy, T, φ, failure timeline), never on the machine
// parameters (FlopTime, Latency, BytePeriod, Overhead). A Recorder attached
// via cluster.Comm.RecordSchedule captures each rank's program-order event
// stream plus the membership of every communicator view; Schedule.Recost
// then replays the identical clock arithmetic under any CostModel,
// reproducing SimTime, BytesSent, MsgsSent, RecoveryTime and the per-event
// recovery envelopes bit-for-bit when replayed under the recording model.
//
// An event stream has one representation, its ESRPRPL1 wire bytes
// (serialize.go): ranks record them, the cache stores them, a decoded
// schedule aliases them and the re-coster walks them by cursor.
//
// The package follows the same nil-handle contract as internal/obs: a nil
// *Recorder yields nil *Rank handles, every Rank method tolerates a nil
// receiver, and a solve without a recorder pays only dead nil-checks on the
// hot path — zero allocations, bit-identical results.
//
// CostModel and its formulas live here rather than in internal/cluster
// (which imports replay and aliases the type): the live clock and the
// re-coster call the same CollectiveCost and GatherRootClock, so there is
// one site per LogGP formula to keep bit-identical. Every product that
// feeds a sum, in these formulas and in both clocks, is rounded by an
// explicit float64 conversion, so that no GOARCH fuses it into a
// multiply-add and a replay on arm64 prices what a solve on amd64 priced.
package replay

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
)

// CostModel holds the LogGP-style machine parameters of the simulated
// cluster, all in seconds (per flop / per message / per byte).
// cluster.CostModel is this type.
type CostModel struct {
	FlopTime   float64 // seconds per floating-point operation
	Latency    float64 // end-to-end latency per message (α)
	BytePeriod float64 // seconds per payload byte (1/bandwidth, β)
	Overhead   float64 // sender-side CPU overhead per message (o)
}

// Kind labels one recorded event.
type Kind uint8

// Event kinds. The first group is emitted by internal/cluster's clock
// primitives; the Rec*/Env*/RTFinal markers are emitted by internal/core
// around its recovery protocols so a replay can rebuild Result.RecoveryTime
// and the per-event recovery envelopes without touching solver state.
const (
	KindInvalid   Kind = iota
	KindCompute        // Val = flops; clock += flops·FlopTime
	KindClockAdd       // Val = dt (model-independent, e.g. DetectionTime)
	_                  // 3: reserved (a clock sync no solve records); decoding it is an error
	KindSend           // Peer = dst global rank, Bytes = payload
	KindRecv           // Peer = src global rank
	KindAllreduce      // View, Bytes = reduced payload, Acct* = star traffic
	KindBcast          // View, Root, Bytes = broadcast payload, Acct*
	KindGather         // View, Root, Bytes = this member's payload, Acct*
	KindRecStart       // recovery protocol entry: t0 = clock
	KindRecEnd         // recoveryTime = max(recoveryTime, clock − t0)
	KindRecCharge      // Val = dt; recoveryTime += dt (detection charge)
	KindEnvStart       // Peer = failure iteration; envelope opens at clock
	KindEnvEnd         // envelope closes at clock
	KindRTFinal        // rank contributes recoveryTime to the final OpMax
)

var kindNames = [...]string{
	KindCompute: "compute", KindClockAdd: "clockadd",
	KindSend: "send", KindRecv: "recv", KindAllreduce: "allreduce", KindBcast: "bcast", KindGather: "gather",
	KindRecStart: "recstart", KindRecEnd: "recend", KindRecCharge: "reccharge",
	KindEnvStart: "envstart", KindEnvEnd: "envend", KindRTFinal: "rtfinal",
}

func (k Kind) String() string {
	if int(k) >= len(kindNames) || kindNames[k] == "" {
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
	return kindNames[k]
}

// event is the decoded value of one entry of a rank's program-order stream.
// Only the fields the Kind documents are meaningful; the rest stay zero (and
// have no wire encoding).
type event struct {
	Kind      Kind
	Root      bool  // bcast/gather: this member is the root
	Peer      int32 // send dst / recv src / envelope iteration
	View      int32 // collective communicator view id
	Bytes     int64
	AcctMsgs  int64   // modeled messages booked by this member
	AcctBytes int64   // modeled payload bytes booked
	Val       float64 // flops / dt
}

// Recorder captures one solve's schedule. Attach with
// cluster.Comm.RecordSchedule before Run; one Recorder records one solve.
// View registration is the only synchronized path (arenas are created
// lazily under the cluster's arena lock); event appends are per-rank
// single-writer, so recording adds no cross-rank contention.
type Recorder struct {
	mu    sync.Mutex
	ranks []Rank
	views [][]int // view id → ascending global member ranks
}

// NewRecorder returns an empty recorder, which RecordSchedule sizes.
func NewRecorder() *Recorder { return &Recorder{} }

// Init sizes the recorder for an n-rank cluster. Called by
// cluster.Comm.RecordSchedule; calling it twice resets the recording. A
// rank's buffer starts with room for a hundred-odd events.
func (rc *Recorder) Init(n int) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.ranks = make([]Rank, n)
	for g := range rc.ranks {
		rc.ranks[g].buf = make([]byte, 0, 1<<10)
	}
	rc.views = nil
}

// Rank returns global rank g's event stream handle — nil when the recorder
// itself is nil, which every Rank method tolerates.
func (rc *Recorder) Rank(g int) *Rank {
	if rc == nil || g < 0 || g >= len(rc.ranks) {
		return nil
	}
	return &rc.ranks[g]
}

// RegisterView records a communicator view's membership (ascending global
// ranks) and returns its id. The cluster calls it once per collective
// arena; ids are assigned in creation order (racy across runs for
// sub-communicators) and canonicalized by Schedule.
func (rc *Recorder) RegisterView(ranks []int) int32 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	id := int32(len(rc.views))
	rc.views = append(rc.views, append([]int(nil), ranks...))
	return id
}

// Schedule freezes the recording into its canonical form. Views are
// reordered lexicographically by member list, so the bytes of a schedule are
// independent of the (racy) arena-creation order of the recorded run. The
// ranks' buffers are copied, behind their event counts, into one payload;
// events are encoded afresh only if the canonical order moved a view id.
// Call after the solve returns, not while recording.
func (rc *Recorder) Schedule() *Schedule {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	// Views have distinct member sets, so the order is strict and total.
	views := slices.Clone(rc.views)
	slices.SortFunc(views, slices.Compare[[]int])
	remap := make([]int32, len(views))
	moved := false
	for oldID, view := range rc.views {
		newID, _ := slices.BinarySearchFunc(views, view, slices.Compare[[]int])
		remap[oldID] = int32(newID)
		moved = moved || newID != oldID
	}
	size := binary.MaxVarintLen64 * len(rc.ranks)
	for g := range rc.ranks {
		size += len(rc.ranks[g].buf)
	}
	out := Rank{buf: make([]byte, 0, size)}
	var e event
	for g := range rc.ranks {
		r := &rc.ranks[g]
		out.buf = binary.AppendUvarint(out.buf, uint64(r.n))
		if !moved {
			out.buf = append(out.buf, r.buf...)
			continue
		}
		for c := (cursor{data: r.buf}); c.off < len(r.buf); {
			c.event(&e)
			if e.Kind == KindAllreduce || e.Kind == KindBcast || e.Kind == KindGather {
				e.View = remap[e.View]
			}
			out.put(&e)
		}
	}
	s, err := index(len(rc.ranks), views, &cursor{data: out.buf})
	if err != nil { // the cluster range-checks every peer before it records it
		panic("replay: the recorder holds an invalid stream: " + err.Error())
	}
	return s
}

// Rank is one global rank's append-only event stream, held in the wire
// encoding of serialize.go. All methods are single-goroutine (the rank's
// own) and tolerate a nil receiver — the zero-overhead-off contract.
type Rank struct {
	buf []byte
	n   int // events in buf
}

// val appends an event that is its kind and one float64.
func (r *Rank) val(k Kind, v float64) {
	if r == nil {
		return
	}
	r.buf = binary.LittleEndian.AppendUint64(append(r.buf, byte(k)), math.Float64bits(v))
	r.n++
}

// peer appends an event that is its kind and one varint.
func (r *Rank) peer(k Kind, p int) {
	if r == nil {
		return
	}
	r.buf = binary.AppendUvarint(append(r.buf, byte(k)), uint64(p))
	r.n++
}

// mark appends an event that is its kind alone.
func (r *Rank) mark(k Kind) {
	if r == nil {
		return
	}
	r.buf = append(r.buf, byte(k))
	r.n++
}

// Compute records a Compute(flops) clock advance.
func (r *Rank) Compute(flops float64) { r.val(KindCompute, flops) }

// ClockAdd records an AddClock(dt) advance (model-independent).
func (r *Rank) ClockAdd(dt float64) { r.val(KindClockAdd, dt) }

// Send records a clocked point-to-point send of bytes payload to global
// rank dst (books 1 message + bytes, like the cluster).
func (r *Rank) Send(dst int, bytes int64) {
	if r == nil {
		return
	}
	r.peer(KindSend, dst)
	r.buf = binary.AppendUvarint(r.buf, uint64(bytes))
}

// Recv records a clocked receive from global rank src; payload size and
// send time come from the matched send at replay.
func (r *Rank) Recv(src int) { r.peer(KindRecv, src) }

// Collective records this member's half of one collective on the given
// view: kind, the payload size its clock arithmetic uses, the modeled star
// traffic it books, and whether it is the root (bcast/gather).
func (r *Rank) Collective(kind Kind, view int32, bytes, acctMsgs, acctBytes int64, root bool) {
	if r == nil {
		return
	}
	b := append(r.buf, byte(kind), 0)
	if root {
		b[len(b)-1] = 1
	}
	for _, v := range [...]int64{int64(view), bytes, acctMsgs, acctBytes} {
		b = binary.AppendUvarint(b, uint64(v))
	}
	r.buf = b
	r.n++
}

// RecStart marks a recovery protocol's t0 := Clock() sample.
func (r *Rank) RecStart() { r.mark(KindRecStart) }

// RecEnd marks recoveryTime = max(recoveryTime, Clock() − t0).
func (r *Rank) RecEnd() { r.mark(KindRecEnd) }

// RecCharge marks recoveryTime += dt (the detection-time charge).
func (r *Rank) RecCharge(dt float64) { r.val(KindRecCharge, dt) }

// EnvStart opens failure event j's recovery envelope at the current clock.
func (r *Rank) EnvStart(j int) { r.peer(KindEnvStart, j) }

// EnvEnd closes the open recovery envelope at the current clock.
func (r *Rank) EnvEnd() { r.mark(KindEnvEnd) }

// RTFinal marks that this rank contributes its recoveryTime to the final
// OpMax reduction (retired ranks never reach it).
func (r *Rank) RTFinal() { r.mark(KindRTFinal) }

// put appends e through the methods the ranks record with, the one encoder.
// Its one caller hands it only what cursor.event decoded from a rank's
// recording, so every kind is known and every field fits its encoding.
func (r *Rank) put(e *event) {
	switch e.Kind {
	case KindCompute, KindClockAdd, KindRecCharge:
		r.val(e.Kind, e.Val)
	case KindSend:
		r.Send(int(e.Peer), e.Bytes)
	case KindRecv, KindEnvStart:
		r.peer(e.Kind, int(e.Peer))
	case KindAllreduce, KindBcast, KindGather:
		r.Collective(e.Kind, e.View, e.Bytes, e.AcctMsgs, e.AcctBytes, e.Root)
	case KindRecStart, KindRecEnd, KindEnvEnd, KindRTFinal:
		r.mark(e.Kind)
	}
}

// Schedule is a recorded solve's full event schedule: the membership of
// every communicator view, in canonical order, and per-rank program-order
// event streams held as their ESRPRPL1 wire bytes. Recorder.Schedule and
// DecodeBinary both end in the one validating scan (index); from then on it
// is immutable, and Recost may be called concurrently (each replay allocates
// its own machine state and shares the scan's tables).
type Schedule struct {
	Nodes int
	Views [][]int

	payload []byte   // per rank: its event count, then its events
	streams [][]byte // per rank: the window of payload that holds its events
	events  int      // in all streams together

	// Left by the scan: the distinct (src,dst) pairs of all sends in CSR form
	// (pairDst[pairOff[src]:pairOff[src+1]] ascending) and, as a prefix sum,
	// the envelopes each rank can emit.
	pairOff []int32
	pairDst []int32
	envOff  []int
}

// checkViews reports a view that is not an ascending list of ranks below n.
func checkViews(n int, views [][]int) error {
	for v, view := range views {
		for i, g := range view {
			if g < 0 || g >= n || (i > 0 && g <= view[i-1]) {
				return fmt.Errorf("replay: view %d %v is not an ascending list of ranks below %d", v, view, n)
			}
		}
	}
	return nil
}

// NumEvents returns the total event count across ranks.
func (s *Schedule) NumEvents() int { return s.events }

// EnvSpan is one replayed recovery envelope: failure event Iter's recovery
// section on one rank, in simulated seconds.
type EnvSpan struct {
	Iter  int     `json:"iter"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// Replayed is the outcome of re-costing a schedule under one machine model:
// the replayed counterparts of Result.SimTime / RecoveryTime / BytesSent /
// MsgsSent, per-rank final clocks, and per-failure-event recovery envelopes
// (indexed by global rank, zero-length spans dropped like obs.Envelope).
type Replayed struct {
	SimTime      float64
	RecoveryTime float64
	BytesSent    int64
	MsgsSent     int64
	Clocks       []float64
	Envelopes    [][]EnvSpan
	Events       int
}

// Rounds returns ⌈log₂ max(n,2)⌉, the round count of a collective over n
// members.
func Rounds(n int) float64 {
	return math.Ceil(math.Log2(float64(max(n, 2))))
}

// CollectiveCost returns the modeled time of one collective with a payload
// of bytes over rounds rounds (Rounds of the view size): each round pays
// latency, overhead and serialization.
func (m *CostModel) CollectiveCost(rounds, bytes float64) float64 {
	return float64(rounds * (m.Latency + m.Overhead + float64(bytes*m.BytePeriod)))
}

// GatherRootClock returns a gather root's clock once the latest entry clock
// of the root and its non-root members is tmax: rounds latencies plus the
// serialization of the bytes the non-roots sent.
func (m *CostModel) GatherRootClock(tmax, rounds, bytes float64) float64 {
	return tmax + float64(m.Latency*rounds) + float64(bytes*m.BytePeriod)
}
