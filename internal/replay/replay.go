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
// reproducing SimTime, BytesSent, MsgsSent and RecoveryTime bit-for-bit when
// replayed under the recording model.
//
// An event stream has one representation, its ESRPRPL3 wire bytes
// (serialize.go): a dictionary of the rank's distinct blocks — the events
// up to and including a collective — and one reference per block
// occurrence. Ranks record them, the cache stores them, a decoded schedule
// aliases them; the validating scan decodes each distinct block once and
// keeps the events, and the re-coster follows the references through them.
//
// A schedule also carries what a span timeline needs (trace.go), with no
// clock or residual in it, so a traced walk under any CostModel yields the
// timeline a solve under that model would have, its per-event recovery
// envelopes included; only Schedule.Trace derives them.
//
// A nil *Recorder yields nil *Rank handles, every Rank method tolerates a
// nil receiver, and a solve without a recorder pays only dead nil-checks on
// the hot path — zero allocations, bit-identical results.
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
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
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
// and a traced walk the per-event recovery envelopes without touching solver
// state; the last four are internal/core's span attribution, which moves no
// clock.
const (
	KindInvalid   Kind = iota
	KindCompute        // Tag = Work, Val = flops; clock += flops·FlopTime
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
	KindIterNext       // the next loop step: iteration += 1
	KindIterSet        // Peer = iteration (−1 outside the loop): a rollback or the epilogue
	KindPoint          // the communicator's rank 0 samples the series
	KindRegion         // Tag = Region of the sends and receives that follow
)

var kindNames = [...]string{
	KindCompute: "compute", KindClockAdd: "clockadd",
	KindSend: "send", KindRecv: "recv", KindAllreduce: "allreduce", KindBcast: "bcast", KindGather: "gather",
	KindRecStart: "recstart", KindRecEnd: "recend", KindRecCharge: "reccharge",
	KindEnvStart: "envstart", KindEnvEnd: "envend", KindRTFinal: "rtfinal",
	KindIterNext: "iternext", KindIterSet: "iterset", KindPoint: "point", KindRegion: "region",
}

// Work names what a Compute event's flops are spent on: the span kind a
// traced walk attributes them to.
type Work uint8

// Work labels.
const (
	WorkVec          Work = iota // fused vector kernels and local dot products
	WorkPrecond                  // preconditioner applications
	WorkSpMV                     // the whole local product of a blocking exchange
	WorkSpMVInterior             // interior rows, overlapping the halo in flight
	WorkSpMVBoundary             // boundary rows, after the halo arrived
	WorkReconstruct              // Alg. 2's reconstruction arithmetic
	WorkInnerSolve               // the inner-system PCG's vector and preconditioner work
	workCount
)

// Region names the point-to-point traffic between two Region events: halo
// exchange unless a checkpoint shipment or a recovery gather is marked.
type Region uint8

// Regions.
const (
	RegionHalo          Region = iota // sends are halo_post, receives halo_wait
	RegionCheckpoint                  // IMCR buddy shipments
	RegionRecoverGather               // post-failure state retrieval
	regionCount
)

func (k Kind) String() string {
	if int(k) >= len(kindNames) || kindNames[k] == "" {
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
	return kindNames[k]
}

// event is the decoded value of one entry of a rank's program-order stream.
// Only the fields the Kind documents are meaningful; the rest stay zero (and
// have no wire encoding). Pair is not decoded: the scan resolves it.
type event struct {
	Kind      Kind
	Root      bool  // bcast/gather: this member is the root
	Tag       uint8 // compute: Work; region: Region
	Peer      int32 // send dst / recv src / envelope iteration / iteration set
	View      int32 // collective communicator view id
	Pair      int32 // send/recv: the (src,dst) pair's index; −1: the source never sends to this rank
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
	views [][]int   // view id → ascending global member ranks
	sched *Schedule // the frozen recording, once Schedule has run
}

// NewRecorder returns an empty recorder, which RecordSchedule sizes.
func NewRecorder() *Recorder { return &Recorder{} }

// Init sizes the recorder for an n-rank cluster. Called by
// cluster.Comm.RecordSchedule; calling it twice resets the recording. A
// rank's dictionary and references start in one allocation, room for a
// few dozen distinct blocks and a few hundred references.
func (rc *Recorder) Init(n int) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	const dictCap, refsCap = 2 << 10, 1 << 9
	rc.ranks = make([]Rank, n)
	for g := range rc.ranks {
		b := make([]byte, 0, dictCap+refsCap)
		rc.ranks[g] = Rank{dict: b[:0:dictCap], refs: b[dictCap:dictCap]}
	}
	rc.views, rc.sched = nil, nil
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
// independent of the (racy) arena-creation order of the recorded run. Each
// rank's dictionary and references are copied into one payload, its open
// block (the events after its last collective) closed as a last block;
// blocks are encoded afresh only if the canonical order moved a view id.
// Call after the solve returns, not while recording; the recording is left
// as it was; later calls return the same *Schedule until the next Init.
func (rc *Recorder) Schedule() *Schedule {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.sched != nil {
		return rc.sched
	}
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
	size := 0
	for g := range rc.ranks {
		r := &rc.ranks[g]
		size += 6*binary.MaxVarintLen64 + len(r.dict) + len(r.refs)
	}
	out := make([]byte, 0, size)
	var blk []byte // a block re-encoded under the canonical view ids
	for g := range rc.ranks {
		r := &rc.ranks[g]
		tail := r.dict[r.open:] // the open block, closed here as the last one
		blocks, refBytes := r.blocks, len(r.refs)
		if len(tail) > 0 {
			blocks++
			refBytes += uvarintLen(uint64(r.blocks))
		}
		out = binary.AppendUvarint(out, uint64(blocks))
		if !moved {
			out = append(out, r.dict[:r.open]...)
			if len(tail) > 0 {
				out = append(binary.AppendUvarint(out, uint64(len(tail))), tail...)
			}
		} else {
			for off := 0; off < len(r.dict); {
				n := len(tail) // the open block has no length in front
				if off < r.open {
					u, w := binary.Uvarint(r.dict[off:])
					n, off = int(u), off+w
				}
				blk = blk[:0]
				var e event
				for c := (cursor{data: r.dict[:off+n], off: off}); c.off < len(c.data); {
					c.event(&e)
					if isCollective(e.Kind) {
						e.View = remap[e.View]
					}
					blk = appendEvent(blk, &e)
				}
				out = append(binary.AppendUvarint(out, uint64(len(blk))), blk...)
				off += n
			}
		}
		out = append(binary.AppendUvarint(out, uint64(refBytes)), r.refs...)
		if len(tail) > 0 {
			out = binary.AppendUvarint(out, uint64(r.blocks))
		}
	}
	s, err := index(len(rc.ranks), views, &cursor{data: out})
	if err != nil { // the cluster range-checks every peer before it records it
		panic("replay: the recorder holds an invalid stream: " + err.Error())
	}
	rc.sched = s
	return s
}

// Rank is one global rank's append-only event stream, held in the wire
// encoding of serialize.go as a dictionary of distinct blocks and one
// reference per block occurrence. A block is the events up to and including
// a collective; the events after the last one form the open block at the
// dictionary's tail. All methods are single-goroutine (the rank's own) and
// tolerate a nil receiver, so a solve without a recorder pays nil-checks.
type Rank struct {
	dict   []byte // closed distinct blocks, each its length then its events; then the open block
	open   int    // where the open block starts in dict
	blocks int    // closed blocks in dict
	refs   []byte // a varint block index per closed block occurrence

	// Where the dictionary search starts: the offset and index of the
	// block after the one last referenced.
	hint, hintBlock int
}

// close ends the open block after a collective: a reference to an equal
// block already in the dictionary, which gives the open block's bytes back,
// or the block itself, added to the dictionary behind its length. The
// search starts after the block last referenced, where a repeated
// iteration body finds its next block at once, and wraps around.
func (r *Rank) close() {
	blk := r.dict[r.open:]
	i, off := r.hintBlock, r.hint
	for range r.blocks {
		if off == r.open {
			i, off = 0, 0
		}
		n, w := binary.Uvarint(r.dict[off:])
		start := off + w
		end := start + int(n)
		if int(n) == len(blk) && bytes.Equal(r.dict[start:end], blk) {
			r.dict = r.dict[:r.open]
			r.refs = binary.AppendUvarint(r.refs, uint64(i))
			r.hint, r.hintBlock = end, i+1
			return
		}
		i, off = i+1, end
	}
	w := uvarintLen(uint64(len(blk)))
	r.dict = append(r.dict, make([]byte, w)...)
	copy(r.dict[r.open+w:], r.dict[r.open:len(r.dict)-w])
	binary.PutUvarint(r.dict[r.open:], uint64(len(blk)))
	r.refs = binary.AppendUvarint(r.refs, uint64(r.blocks))
	r.blocks++
	r.open = len(r.dict)
	r.hint, r.hintBlock = r.open, r.blocks
}

// uvarintLen returns the bytes of v's varint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// appendVal appends an event that is its kind and one float64.
func appendVal(b []byte, k Kind, v float64) []byte {
	return binary.LittleEndian.AppendUint64(append(b, byte(k)), math.Float64bits(v))
}

// appendPeer appends an event that is its kind and one varint.
func appendPeer(b []byte, k Kind, p int) []byte {
	return binary.AppendUvarint(append(b, byte(k)), uint64(p))
}

// appendCompute appends a Compute of flops spent on w.
func appendCompute(b []byte, w Work, flops float64) []byte {
	return binary.LittleEndian.AppendUint64(append(b, byte(KindCompute), byte(w)), math.Float64bits(flops))
}

// appendSend appends a send of bytes payload to global rank dst.
func appendSend(b []byte, dst int, bytes int64) []byte {
	return binary.AppendUvarint(appendPeer(b, KindSend, dst), uint64(bytes))
}

// appendCollective appends one member's half of a collective.
func appendCollective(b []byte, kind Kind, view int32, bytes, acctMsgs, acctBytes int64, root bool) []byte {
	b = append(b, byte(kind), 0)
	if root {
		b[len(b)-1] = 1
	}
	for _, v := range [...]int64{int64(view), bytes, acctMsgs, acctBytes} {
		b = binary.AppendUvarint(b, uint64(v))
	}
	return b
}

// appendEvent appends e through the encoders the ranks record with. Its one
// caller hands it only what cursor.event decoded from a rank's recording, so
// every kind is known and every field fits its encoding.
func appendEvent(b []byte, e *event) []byte {
	switch e.Kind {
	case KindCompute:
		return appendCompute(b, Work(e.Tag), e.Val)
	case KindClockAdd, KindRecCharge:
		return appendVal(b, e.Kind, e.Val)
	case KindSend:
		return appendSend(b, int(e.Peer), e.Bytes)
	case KindRecv, KindEnvStart:
		return appendPeer(b, e.Kind, int(e.Peer))
	case KindIterSet:
		return appendPeer(b, e.Kind, int(e.Peer)+1)
	case KindRegion:
		return appendPeer(b, e.Kind, int(e.Tag))
	case KindAllreduce, KindBcast, KindGather:
		return appendCollective(b, e.Kind, e.View, e.Bytes, e.AcctMsgs, e.AcctBytes, e.Root)
	}
	return append(b, byte(e.Kind))
}

// isCollective reports whether events of kind k end a block.
func isCollective(k Kind) bool {
	return k == KindAllreduce || k == KindBcast || k == KindGather
}

// val appends an event that is its kind and one float64.
func (r *Rank) val(k Kind, v float64) {
	if r == nil {
		return
	}
	r.dict = appendVal(r.dict, k, v)
}

// peer appends an event that is its kind and one varint.
func (r *Rank) peer(k Kind, p int) {
	if r == nil {
		return
	}
	r.dict = appendPeer(r.dict, k, p)
}

// mark appends an event that is its kind alone.
func (r *Rank) mark(k Kind) {
	if r == nil {
		return
	}
	r.dict = append(r.dict, byte(k))
}

// Compute records a Compute(flops) clock advance spent on w.
func (r *Rank) Compute(w Work, flops float64) {
	if r == nil {
		return
	}
	r.dict = appendCompute(r.dict, w, flops)
}

// ClockAdd records an AddClock(dt) advance (model-independent).
func (r *Rank) ClockAdd(dt float64) { r.val(KindClockAdd, dt) }

// Send records a clocked point-to-point send of bytes payload to global
// rank dst (books 1 message + bytes, like the cluster).
func (r *Rank) Send(dst int, bytes int64) {
	if r == nil {
		return
	}
	r.dict = appendSend(r.dict, dst, bytes)
}

// Recv records a clocked receive from global rank src; payload size and
// send time come from the matched send at replay.
func (r *Rank) Recv(src int) { r.peer(KindRecv, src) }

// Collective records this member's half of one collective on the given
// view: kind, the payload size its clock arithmetic uses, the modeled star
// traffic it books, and whether it is the root (bcast/gather). It closes
// the rank's open block.
func (r *Rank) Collective(kind Kind, view int32, bytes, acctMsgs, acctBytes int64, root bool) {
	if r == nil {
		return
	}
	r.dict = appendCollective(r.dict, kind, view, bytes, acctMsgs, acctBytes, root)
	r.close()
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

// IterNext marks the start of the next loop step, one iteration past the
// last.
func (r *Rank) IterNext() { r.mark(KindIterNext) }

// IterSet marks that the events after it belong to iteration j (−1: outside
// the loop). The solver sets it only where IterNext does not reach: at a
// rollback and at the epilogue.
func (r *Rank) IterSet(j int) { r.peer(KindIterSet, j+1) }

// Point marks where the communicator's rank 0 samples the series; the
// sampled residual stays with the caller.
func (r *Rank) Point() { r.mark(KindPoint) }

// Region marks the sends and receives that follow as rg's traffic.
func (r *Rank) Region(rg Region) { r.peer(KindRegion, int(rg)) }

// Schedule is a recorded solve's full event schedule: the membership of
// every communicator view, in canonical order, and per rank its dictionary
// of distinct blocks and its block references, held as their ESRPRPL3 wire
// bytes. Recorder.Schedule and DecodeBinary both end in the one validating
// scan (index), which keeps the distinct blocks' decoded events; from then on
// it is immutable, and Recost may be called concurrently (each replay
// allocates its own machine state and shares the scan's tables).
type Schedule struct {
	Nodes int
	Views [][]int

	payload []byte   // per rank: its dictionary, then its references
	blocks  []block  // every rank's distinct blocks, rank by rank
	streams []stream // per rank, then one entry that closes the prefix sums
	dict    []event  // every distinct block's events, markers included, block by block
	events  int      // in all streams together, every block occurrence counted

	// Left by the scan for sizing a walk: the distinct (src,dst) pairs of all
	// sends, and the send slots a walk starts with — per rank the most sends
	// one of its blocks holds, summed.
	pairs int
	slots int
}

// stream is one rank's part of a schedule: its block references, and as a
// prefix sum over the ranks, where its blocks start in Schedule.blocks.
type stream struct {
	refs  []byte // the window of payload that holds the references
	block int
}

// block is one distinct block of a rank's dictionary: where its events lie
// in the payload, how many there are, where the first lies in
// Schedule.dict, and how many envelopes it closes.
type block struct {
	off, end int
	first    int
	events   int
	envs     int
	closed   bool // ends in a collective
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

// Replayed is the outcome of re-costing a schedule under one machine model:
// the replayed counterparts of Result.SimTime / RecoveryTime / BytesSent /
// MsgsSent, and per-rank final clocks. The per-event recovery envelopes are
// the trace's (Schedule.Trace).
type Replayed struct {
	SimTime      float64
	RecoveryTime float64
	BytesSent    int64
	MsgsSent     int64
	Clocks       []float64
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
