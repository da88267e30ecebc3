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
// The package follows the same nil-handle contract as internal/obs: a nil
// *Recorder yields nil *Rank handles, every Rank method tolerates a nil
// receiver, and a solve without a recorder pays only dead nil-checks on the
// hot path — zero allocations, bit-identical results.
//
// replay deliberately imports nothing from internal/cluster (cluster
// imports replay); CostModel is a structurally identical twin of
// cluster.CostModel so call sites convert with a plain Go conversion.
package replay

import (
	"fmt"
	"sort"
	"sync"
)

// CostModel mirrors cluster.CostModel field-for-field (same names, types,
// order), so cluster.CostModel values convert directly:
// replay.CostModel(m).
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
	KindClockSync      // Val = t; clock = max(clock, t) — recorded verbatim
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

func (k Kind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindClockAdd:
		return "clockadd"
	case KindClockSync:
		return "clocksync"
	case KindSend:
		return "send"
	case KindRecv:
		return "recv"
	case KindAllreduce:
		return "allreduce"
	case KindBcast:
		return "bcast"
	case KindGather:
		return "gather"
	case KindRecStart:
		return "recstart"
	case KindRecEnd:
		return "recend"
	case KindRecCharge:
		return "reccharge"
	case KindEnvStart:
		return "envstart"
	case KindEnvEnd:
		return "envend"
	case KindRTFinal:
		return "rtfinal"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one entry of a rank's program-order stream. Only the fields the
// Kind documents are meaningful; the rest stay zero (and are elided by the
// binary encoding).
type Event struct {
	Kind      Kind    `json:"k"`
	Root      bool    `json:"root,omitempty"` // bcast/gather: this member is the root
	Peer      int32   `json:"peer,omitempty"` // send dst / recv src / envelope iteration
	View      int32   `json:"view,omitempty"` // collective communicator view id
	Bytes     int64   `json:"bytes,omitempty"`
	AcctMsgs  int64   `json:"amsgs,omitempty"`  // modeled messages booked by this member
	AcctBytes int64   `json:"abytes,omitempty"` // modeled payload bytes booked
	Val       float64 `json:"val,omitempty"`    // flops / dt / sync target
}

// Recorder captures one solve's schedule. Attach with
// cluster.Comm.RecordSchedule before Run; one Recorder records one solve.
// View registration is the only synchronized path (arenas are created
// lazily under the cluster's arena lock); event appends are per-rank
// single-writer, so recording adds no cross-rank contention.
type Recorder struct {
	mu    sync.Mutex
	n     int
	ranks []*Rank
	views [][]int // view id → ascending global member ranks
}

// NewRecorder returns an empty recorder; the cluster sizes it in
// RecordSchedule.
func NewRecorder() *Recorder { return &Recorder{} }

// Init sizes the recorder for an n-rank cluster. Called by
// cluster.Comm.RecordSchedule; calling it twice resets the recording.
func (rc *Recorder) Init(n int) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.n = n
	rc.ranks = make([]*Rank, n)
	for g := range rc.ranks {
		rc.ranks[g] = &Rank{}
	}
	rc.views = rc.views[:0]
}

// Rank returns global rank g's event stream handle — nil when the recorder
// itself is nil, which every Rank method tolerates.
func (rc *Recorder) Rank(g int) *Rank {
	if rc == nil || g < 0 || g >= len(rc.ranks) {
		return nil
	}
	return rc.ranks[g]
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

// Schedule freezes the recording into its serializable, canonical form.
// Views are reordered lexicographically by member list and event View
// fields remapped, so the bytes of a schedule are independent of the
// (racy) arena-creation order of the recorded run. Call after the solve
// returns; the recorder must not be recording concurrently.
func (rc *Recorder) Schedule() *Schedule {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	perm := make([]int, len(rc.views))
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool {
		return lessRanks(rc.views[perm[a]], rc.views[perm[b]])
	})
	remap := make([]int32, len(rc.views))
	views := make([][]int, len(rc.views))
	for newID, oldID := range perm {
		remap[oldID] = int32(newID)
		views[newID] = append([]int(nil), rc.views[oldID]...)
	}
	s := &Schedule{Nodes: rc.n, Views: views, Events: make([][]Event, rc.n)}
	for g, r := range rc.ranks {
		evs := append([]Event(nil), r.ev...)
		for i := range evs {
			switch evs[i].Kind {
			case KindAllreduce, KindBcast, KindGather:
				evs[i].View = remap[evs[i].View]
			}
		}
		s.Events[g] = evs
	}
	return s
}

// lessRanks orders member lists lexicographically (views have distinct
// member sets, so this is a strict total order).
func lessRanks(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// Rank is one global rank's append-only event stream. All methods are
// single-goroutine (the rank's own) and tolerate a nil receiver — the
// zero-overhead-off contract.
type Rank struct {
	ev []Event
}

// Compute records a Compute(flops) clock advance.
func (r *Rank) Compute(flops float64) {
	if r == nil {
		return
	}
	r.ev = append(r.ev, Event{Kind: KindCompute, Val: flops})
}

// ClockAdd records an AddClock(dt) advance (model-independent).
func (r *Rank) ClockAdd(dt float64) {
	if r == nil {
		return
	}
	r.ev = append(r.ev, Event{Kind: KindClockAdd, Val: dt})
}

// ClockSync records a SyncClock(t). The target t is a clock value of the
// recorded run, so a schedule containing sync events only re-costs exactly
// under the recording model; the solver does not use SyncClock.
func (r *Rank) ClockSync(t float64) {
	if r == nil {
		return
	}
	r.ev = append(r.ev, Event{Kind: KindClockSync, Val: t})
}

// Send records a clocked point-to-point send of bytes payload to global
// rank dst (books 1 message + bytes, like the cluster).
func (r *Rank) Send(dst int, bytes int64) {
	if r == nil {
		return
	}
	r.ev = append(r.ev, Event{Kind: KindSend, Peer: int32(dst), Bytes: bytes, AcctMsgs: 1, AcctBytes: bytes})
}

// Recv records a clocked receive from global rank src; payload size and
// send time come from the matched send at replay.
func (r *Rank) Recv(src int) {
	if r == nil {
		return
	}
	r.ev = append(r.ev, Event{Kind: KindRecv, Peer: int32(src)})
}

// Collective records this member's half of one collective on the given
// view: kind, the payload size its clock arithmetic uses, the modeled star
// traffic it books, and whether it is the root (bcast/gather).
func (r *Rank) Collective(kind Kind, view int32, bytes, acctMsgs, acctBytes int64, root bool) {
	if r == nil {
		return
	}
	r.ev = append(r.ev, Event{Kind: kind, View: view, Bytes: bytes, AcctMsgs: acctMsgs, AcctBytes: acctBytes, Root: root})
}

// RecStart marks a recovery protocol's t0 := Clock() sample.
func (r *Rank) RecStart() {
	if r == nil {
		return
	}
	r.ev = append(r.ev, Event{Kind: KindRecStart})
}

// RecEnd marks recoveryTime = max(recoveryTime, Clock() − t0).
func (r *Rank) RecEnd() {
	if r == nil {
		return
	}
	r.ev = append(r.ev, Event{Kind: KindRecEnd})
}

// RecCharge marks recoveryTime += dt (the detection-time charge).
func (r *Rank) RecCharge(dt float64) {
	if r == nil {
		return
	}
	r.ev = append(r.ev, Event{Kind: KindRecCharge, Val: dt})
}

// EnvStart opens failure event j's recovery envelope at the current clock.
func (r *Rank) EnvStart(j int) {
	if r == nil {
		return
	}
	r.ev = append(r.ev, Event{Kind: KindEnvStart, Peer: int32(j)})
}

// EnvEnd closes the open recovery envelope at the current clock.
func (r *Rank) EnvEnd() {
	if r == nil {
		return
	}
	r.ev = append(r.ev, Event{Kind: KindEnvEnd})
}

// RTFinal marks that this rank contributes its recoveryTime to the final
// OpMax reduction (retired ranks never reach it).
func (r *Rank) RTFinal() {
	if r == nil {
		return
	}
	r.ev = append(r.ev, Event{Kind: KindRTFinal})
}

// Schedule is a recorded solve's full event schedule: per-rank program-order
// streams plus the membership of every communicator view, in canonical
// order. It is immutable once built; Recost may be called concurrently from
// multiple goroutines (each replay allocates its own machine state).
type Schedule struct {
	Nodes  int       `json:"nodes"`
	Views  [][]int   `json:"views"`
	Events [][]Event `json:"events"`
}

// NumEvents returns the total event count across ranks.
func (s *Schedule) NumEvents() int {
	n := 0
	for _, evs := range s.Events {
		n += len(evs)
	}
	return n
}

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

// collectiveCost mirrors cluster.Node.collectiveCost bit-for-bit, with
// rounds = ⌈log₂ max(n,2)⌉ hoisted out (the re-coster computes it once per
// view).
func (m *CostModel) collectiveCost(rounds, bytes float64) float64 {
	return rounds * (m.Latency + m.Overhead + bytes*m.BytePeriod)
}
