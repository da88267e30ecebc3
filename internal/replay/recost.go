package replay

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// This file is the re-coster: it replays a Schedule's per-rank event
// streams under a set of CostModels, running the identical clock arithmetic
// the cluster ran when the schedule was recorded — delivery = sendTime +
// Latency + bytes·BytePeriod with a receiver max-merge at the matched
// receive, ⌈log₂ n⌉·(Latency + Overhead + bytes·BytePeriod) collective
// rounds over the max of the members' entry clocks, per-message sender
// Overhead — plus the recovery-time bookkeeping internal/core marks into
// the stream. No numeric solver state exists here at all; a replay is pure
// O(events) float arithmetic.
//
// One walk serves every model. Which rank blocks where — a receive whose
// matching send has not been replayed yet, a collective missing members —
// is decided by the streams alone, never by a clock value, so the walker's
// control flow (event fetch, pair and instance lookup, block, retry) is
// shared by all K models and only the float arithmetic is K-wide: every
// clock-valued piece of state is a run of K floats, one per model.
//
// Scheduling: ranks are swept round-robin, each executing events until it
// blocks. Every sweep retires all newly unblocked work, so the total cost is
// O(events) amortized — the sweep count is bounded by the schedule's
// synchronization depth, and a blocked rank's re-check is a step of the
// event it stopped at, with O(1) pair and member lookups. A recorded
// schedule cannot deadlock (replay blocking is a subset of the original
// run's blocking); the no-progress check below guards against truncated or
// hand-edited schedules. The schedule's validating scan decoded every
// distinct block once, into one array, and gave each send and receive the
// index of its (src,dst) pair; a rank follows its block references through
// that array, so a call decodes nothing, and nothing is allocated per event
// occurrence. A call allocates one array per element type, sized from counts
// the scan left — ranks, view members, pairs, the send slots one block per
// rank needs, two collective instances per view — and the send-slot and
// instance pools grow past that only when ranks run further ahead than the
// scan can bound (broadcast roots and gather non-roots). Send slots and
// collective instances are recycled. Expanded, a schedule can hold more
// events than bytes, so the walk also fails once the send slots and
// collective instances in flight outnumber the payload's bytes: memory stays
// linear in the input.

// sendSlot is one in-flight point-to-point message: payload size and the
// link to the next message of the same (src,dst) FIFO, or to the next free
// slot. Its K send times (sender clock after the send overhead) live at
// machine.slotT[slot·K:].
type sendSlot struct {
	bytes int64
	next  int32
}

// collInst is one collective instance shared by a view's members.
type collInst struct {
	entries  []float64 // n·K: per local rank, the clocks at entry
	agg      []float64 // K: allreduce max over entries / bcast root's entry clocks
	bytes    int64     // gather: payload bytes of the non-root members so far
	arrived  int
	departed int
	rootSeen bool
}

// viewState is one communicator view's replay state. A member reaches
// instance q+1 only by departing instance q, so instances are created, and
// fully departed, in sequence order: the live ones form a FIFO and
// (view, seq) needs no map. Instances are indices into machine.insts, whose
// entries 2v and 2v+1 are view v's first two.
type viewState struct {
	members []int
	rounds  float64 // Rounds(len(members))
	seq     []int32 // per local rank: collectives completed on this view
	live    []int32 // live[head+i] is instance base+i
	head    int
	base    int32
	free    []int32
	made    int32 // instances made for this view so far
}

// rankState is one rank's replay cursor; the float fields are the rank's
// K-wide windows into the machine's flat n·K arrays.
type rankState struct {
	evs       []event // the decoded events of the block being run
	pos       int     // of the next event in evs
	ref       int     // offset of the next block reference in the rank's window
	pc        int     // the next event's index in the expanded stream
	member    int     // the rank's index in the last view it used
	rtFinal   bool
	published bool      // current collective event already contributed
	clock     []float64 // simulated clocks
	rt        []float64 // recoveryTime accumulators
	t0        []float64 // last RecStart clocks
}

// machine is the full replay state for one RecostAll or Trace call.
type machine struct {
	s     *Schedule
	ms    []CostModel
	out   []Replayed
	rs    []rankState
	vs    []viewState
	insts []collInst

	// Send slots and collective instances that may still be made: the
	// payload's byte count, less those made so far.
	room int

	// Per-model parameters the K-wide loops read, one run of K each.
	flop, ovh, lat, bp []float64

	// Point-to-point boxes: one FIFO per (src,dst) pair, indexed by the
	// pair index the scan gave each send and receive, threaded through the
	// recycled slots.
	qhead    []int32
	qtail    []int32
	slots    []sendSlot
	slotT    []float64
	freeSlot int32

	acctB, acctM int64 // modeled traffic booked so far

	tr *tracer // nil unless the walk is Schedule.Trace's
}

// Recost replays the schedule under machine model m. Safe for concurrent
// calls on one Schedule (it is read-only; all replay state is the call's).
func (s *Schedule) Recost(m CostModel) (*Replayed, error) {
	reps, err := s.RecostAll([]CostModel{m})
	if err != nil {
		return nil, err
	}
	return &reps[0], nil
}

// RecostAll replays the schedule under every model in one walk and returns
// one Replayed per model, in order; element j is bit-identical to
// Recost(models[j]). A schedule that fails to replay fails for every model
// alike. Safe for concurrent calls on one Schedule.
func (s *Schedule) RecostAll(models []CostModel) ([]Replayed, error) {
	var mc machine
	if err := mc.init(s, models); err != nil {
		return nil, err
	}
	if err := mc.run(); err != nil {
		return nil, err
	}
	return mc.out, nil
}

// run sweeps the ranks until every one has run its last event, then fills
// the results.
func (mc *machine) run() error {
	for done := false; !done; {
		progress := false
		done = true
		for g := range mc.rs {
			adv, err := mc.runRank(g)
			if err != nil {
				return err
			}
			progress = progress || adv
			done = done && mc.finished(g)
		}
		if !done && !progress {
			return mc.deadlockErr()
		}
	}

	for j := range mc.out {
		out := &mc.out[j]
		out.BytesSent, out.MsgsSent = mc.acctB, mc.acctM
		// The final recovery time is the OpMax allreduce over the surviving
		// view: the fold starts from the lowest-ranked participant and applies
		// math.Max in ascending rank order, mirroring the arena reduction.
		first := true
		for g := range mc.rs {
			st := &mc.rs[g]
			out.Clocks[g] = st.clock[j]
			if st.clock[j] > out.SimTime {
				out.SimTime = st.clock[j]
			}
			if !st.rtFinal {
				continue
			}
			if first {
				out.RecoveryTime = st.rt[j]
				first = false
			} else {
				out.RecoveryTime = math.Max(out.RecoveryTime, st.rt[j])
			}
		}
	}
	return nil
}

// init sizes the replay state: one allocation per element type, sized from
// the scan's counts. The streams were validated when the schedule was built;
// Nodes and Views are exported fields and are checked here, so that
// re-costing any schedule returns a result or an error.
func (mc *machine) init(s *Schedule, models []CostModel) error {
	n, k := s.Nodes, len(models)
	if n < 0 || len(s.streams) != n+1 {
		return fmt.Errorf("replay: schedule declares %d nodes but carries %d event streams", n, len(s.streams)-1)
	}
	if err := checkViews(n, s.Views); err != nil {
		return err
	}
	// A recorded solve holds many bytes per rank; a schedule with fewer than
	// n²/64 bytes is refused. The bound was set for an n×n pair table the
	// walk no longer builds; it stays so that whether a schedule re-costs
	// does not change with the build.
	if n*n/64 > len(s.payload) {
		return fmt.Errorf("replay: %d ranks in %d payload bytes: too sparse to re-cost", n, len(s.payload))
	}
	*mc = machine{s: s, ms: models, freeSlot: -1, room: len(s.payload)}

	members := 0
	for _, view := range s.Views {
		members += len(view)
	}
	p, nv := s.pairs, len(s.Views)

	// int32s: per view member a collective count, per pair a FIFO head and
	// tail, per view two live and two free instance indices.
	is := make([]int32, members+2*p+4*nv)
	seq, q, lists := is[:members], is[members:members+2*p], is[members+2*p:]
	for i := range q {
		q[i] = -1
	}
	mc.qhead, mc.qtail = q[:p:p], q[p:]

	// float64s: per rank its three windows, per model its four parameters,
	// the results' clocks, the first send slots' times and the first two
	// instances' entry and aggregate clocks of each view, all K wide.
	f := make([]float64, k*(3*n+4+n+s.slots+2*(members+nv)))
	w := f[3*n*k:]
	mc.flop, mc.ovh, mc.lat, mc.bp = w[:k:k], w[k:2*k:2*k], w[2*k:3*k:3*k], w[3*k:4*k:4*k]
	for j, m := range models {
		mc.flop[j], mc.ovh[j], mc.lat[j], mc.bp[j] = m.FlopTime, m.Overhead, m.Latency, m.BytePeriod
	}
	clocks := f[(3*n+4)*k:][: n*k : n*k]
	w = f[(4*n+4)*k:]
	mc.slots, mc.slotT = make([]sendSlot, 0, s.slots), w[:0:s.slots*k]
	w = w[s.slots*k:]

	mc.vs, mc.insts = make([]viewState, nv), make([]collInst, 2*nv)
	for v, view := range s.Views {
		nk := len(view) * k
		for i := range 2 {
			mc.insts[2*v+i] = collInst{entries: w[:nk:nk], agg: w[nk : nk+k : nk+k]}
			w = w[nk+k:]
		}
		mc.vs[v] = viewState{
			members: view,
			rounds:  Rounds(len(view)),
			seq:     seq[:len(view):len(view)],
			live:    lists[:0:2],
			free:    lists[2:2:4],
		}
		seq, lists = seq[len(view):], lists[4:]
	}

	// The K results; their clocks are in the float64s.
	mc.out = make([]Replayed, k)
	for j := range mc.out {
		mc.out[j].Clocks = clocks[j*n:][:n:n]
	}

	mc.rs = make([]rankState, n)
	for g := range mc.rs {
		w := f[3*g*k:]
		mc.rs[g] = rankState{clock: w[:k:k], rt: w[k : 2*k : 2*k], t0: w[2*k : 3*k : 3*k]}
	}
	return nil
}

// finished reports whether rank g has run its last event.
func (mc *machine) finished(g int) bool {
	st := &mc.rs[g]
	return st.pos == len(st.evs) && st.ref == len(mc.s.streams[g].refs)
}

// runRank executes rank g's events until it blocks or finishes, reporting
// whether it made any progress. A blocked rank stays on its event, and the
// next sweep steps it again.
func (mc *machine) runRank(g int) (bool, error) {
	st := &mc.rs[g]
	refs := mc.s.streams[g].refs
	advanced := false
	for {
		if st.pos == len(st.evs) {
			if st.ref == len(refs) {
				return advanced, nil
			}
			// The scan checked every reference: a minimal varint below the
			// rank's block count, nearly always one byte.
			r, w := int(refs[st.ref]), 1
			if r >= 0x80 {
				u, n := binary.Uvarint(refs[st.ref:])
				r, w = int(u), n
			}
			st.ref += w
			b := &mc.s.blocks[mc.s.streams[g].block+r]
			st.evs, st.pos = mc.s.dict[b.first:b.first+b.events], 0
		}
		ok, err := mc.step(g, st, &st.evs[st.pos])
		if err != nil {
			return advanced, fmt.Errorf("replay: rank %d event %d (%v): %w", g, st.pc, st.evs[st.pos].Kind, err)
		}
		if !ok {
			return advanced, nil
		}
		if mc.tr != nil {
			mc.tr.note(g, &st.evs[st.pos], st.clock[0])
		}
		st.pos++
		st.pc++
		advanced = true
	}
}

// step executes the rank's decoded event; false means blocked (retry later).
func (mc *machine) step(g int, st *rankState, e *event) (bool, error) {
	clock := st.clock
	k := len(clock)
	switch e.Kind {
	case KindCompute:
		flop := mc.flop[:k]
		for j := range clock {
			clock[j] += float64(e.Val * flop[j])
		}
	case KindClockAdd:
		for j := range clock {
			clock[j] += e.Val
		}
	case KindSend:
		q := e.Pair // every send's pair was listed by the scan
		sl, err := mc.newSlot(e.Bytes)
		if err != nil {
			return false, err
		}
		sendTime := mc.slotT[int(sl)*k:][:k]
		ovh := mc.ovh[:k]
		for j := range clock {
			clock[j] += ovh[j]
			sendTime[j] = clock[j]
		}
		if mc.qtail[q] < 0 {
			mc.qhead[q] = sl
		} else {
			mc.slots[mc.qtail[q]].next = sl
		}
		mc.qtail[q] = sl
		mc.acctM, mc.acctB = mc.acctM+e.AcctMsgs, mc.acctB+e.AcctBytes
	case KindRecv:
		q := e.Pair
		if q < 0 || mc.qhead[q] < 0 {
			return false, nil
		}
		sl := mc.qhead[q]
		if mc.qhead[q] = mc.slots[sl].next; mc.qhead[q] < 0 {
			mc.qtail[q] = -1
		}
		bytes := float64(mc.slots[sl].bytes)
		sendTime := mc.slotT[int(sl)*k:][:k]
		lat, bp := mc.lat[:k], mc.bp[:k]
		for j := range clock {
			arrival := sendTime[j] + lat[j] + float64(bytes*bp[j])
			if arrival > clock[j] {
				clock[j] = arrival
			}
		}
		mc.slots[sl].next, mc.freeSlot = mc.freeSlot, sl
	case KindAllreduce, KindBcast, KindGather:
		return mc.stepCollective(g, st, e)
	case KindRecStart:
		copy(st.t0, clock)
	case KindRecEnd:
		for j := range clock {
			st.rt[j] = math.Max(st.rt[j], clock[j]-st.t0[j])
		}
	case KindRecCharge:
		for j := range st.rt {
			st.rt[j] += e.Val
		}
	case KindRTFinal:
		st.rtFinal = true
	}
	return true, nil
}

// stepCollective replays one member's half of a collective.
func (mc *machine) stepCollective(g int, st *rankState, e *event) (bool, error) {
	if int(e.View) >= len(mc.vs) { // Views may have shrunk since the scan
		return false, fmt.Errorf("view %d out of range", e.View)
	}
	vs := &mc.vs[e.View]
	n := len(vs.members)
	me := st.member // members ascend, so members[me] == g pins me
	if me >= n || vs.members[me] != g {
		var ok bool
		if me, ok = slices.BinarySearch(vs.members, g); !ok {
			return false, fmt.Errorf("rank not a member of view %d %v", e.View, vs.members)
		}
		st.member = me
	}
	clock := st.clock
	k := len(clock)
	ms := mc.ms[:k]
	inst, err := mc.instance(int32(e.View), vs, vs.seq[me])
	if err != nil {
		return false, err
	}
	bytes := float64(e.Bytes)

	switch e.Kind {
	case KindAllreduce:
		if !st.published {
			copy(inst.entries[me*k:], clock)
			inst.arrived++
			st.published = true
			if inst.arrived == n { // the last arriver folds the max for everyone
				copy(inst.agg, inst.entries[:k])
				for r := 1; r < n; r++ {
					for j, t := range inst.entries[r*k:][:k] {
						if t > inst.agg[j] {
							inst.agg[j] = t
						}
					}
				}
			}
		}
		if inst.arrived < n {
			return false, nil
		}
		for j := range clock {
			clock[j] = inst.agg[j] + ms[j].CollectiveCost(vs.rounds, bytes)
		}

	case KindBcast:
		if e.Root {
			inst.rootSeen = true
			copy(inst.agg, clock)
			for j := range clock {
				clock[j] += ms[j].CollectiveCost(vs.rounds, bytes)
			}
			break
		}
		if !inst.rootSeen {
			return false, nil
		}
		for j := range clock {
			clock[j] = math.Max(inst.agg[j], clock[j]) + ms[j].CollectiveCost(vs.rounds, bytes)
		}

	case KindGather:
		if !st.published {
			copy(inst.entries[me*k:], clock)
			inst.arrived++
			st.published = true
			if !e.Root {
				inst.bytes += e.Bytes
			}
		}
		if !e.Root {
			// Non-roots only pay their send overhead; gather does not
			// synchronize them on the simulated clock.
			ovh := mc.ovh[:k]
			for j := range clock {
				clock[j] += ovh[j]
			}
			break
		}
		if inst.arrived < n {
			return false, nil
		}
		total := float64(inst.bytes)
		for j := range clock {
			tmax := clock[j]
			for r := 0; r < n; r++ {
				if t := inst.entries[r*k+j]; r != me && t > tmax {
					tmax = t
				}
			}
			clock[j] = ms[j].GatherRootClock(tmax, vs.rounds, total)
		}
	}

	mc.acctM, mc.acctB = mc.acctM+e.AcctMsgs, mc.acctB+e.AcctBytes
	st.published = false
	vs.seq[me]++
	if inst.departed++; inst.departed == n {
		mc.retire(vs)
	}
	return true, nil
}

// instance returns view v's instance number seq, creating it — from the
// free list when possible, then from the view's two made by init — if this
// member is the first to reach it.
func (mc *machine) instance(v int32, vs *viewState, seq int32) (*collInst, error) {
	if i := vs.head + int(seq-vs.base); i < len(vs.live) {
		return &mc.insts[vs.live[i]], nil
	}
	var id int32
	if last := len(vs.free) - 1; last >= 0 {
		id, vs.free = vs.free[last], vs.free[:last]
	} else {
		if err := mc.book(); err != nil {
			return nil, err
		}
		if vs.made < 2 {
			id = 2*v + vs.made
		} else {
			k := len(mc.ms)
			nk := len(vs.members) * k
			f := make([]float64, nk+k)
			id = int32(len(mc.insts))
			mc.insts = append(mc.insts, collInst{entries: f[:nk], agg: f[nk:]})
		}
		vs.made++
	}
	vs.live = append(vs.live, id)
	return &mc.insts[id], nil
}

// retire recycles the oldest live instance once every member has departed
// it, compacting the FIFO whenever its dead prefix reaches half its length
// (amortized O(1), and the slice stays as short as the live window).
func (mc *machine) retire(vs *viewState) {
	id := vs.live[vs.head]
	inst := &mc.insts[id]
	inst.bytes, inst.arrived, inst.departed, inst.rootSeen = 0, 0, 0, false
	vs.free = append(vs.free, id)
	vs.head++
	vs.base++
	if 2*vs.head >= len(vs.live) {
		vs.live = vs.live[:copy(vs.live, vs.live[vs.head:])]
		vs.head = 0
	}
}

// book counts one more send slot or collective instance, and fails once
// they would outnumber the payload's bytes.
func (mc *machine) book() error {
	if mc.room--; mc.room < 0 {
		return fmt.Errorf("more send slots and collective instances in flight than the schedule's %d payload bytes", len(mc.s.payload))
	}
	return nil
}

// newSlot takes a send slot off the free list, growing the pool when every
// slot is in flight. The pool doubles, but never past the slots the
// in-flight bound still allows, so a schedule that floods it costs at most
// about twice the pool it ends with (append's 1.25× steps for a large slice
// cost five times).
func (mc *machine) newSlot(bytes int64) (int32, error) {
	sl := mc.freeSlot
	if sl >= 0 {
		mc.freeSlot = mc.slots[sl].next
	} else {
		if err := mc.book(); err != nil {
			return 0, err
		}
		sl = int32(len(mc.slots))
		if len(mc.slots) == cap(mc.slots) {
			n := min(max(2*len(mc.slots), 16), len(mc.slots)+1+mc.room)
			mc.slots = append(make([]sendSlot, 0, n), mc.slots...)
			mc.slotT = append(make([]float64, 0, n*len(mc.ms)), mc.slotT...)
		}
		mc.slots = mc.slots[:sl+1]
		mc.slotT = mc.slotT[:len(mc.slots)*len(mc.ms)]
	}
	mc.slots[sl] = sendSlot{bytes: bytes, next: -1}
	return sl, nil
}

// deadlockErr describes where every unfinished rank is stuck — reached only
// for schedules that were truncated or edited after recording.
func (mc *machine) deadlockErr() error {
	msg := "replay: no progress (truncated or inconsistent schedule); stuck:"
	for g := range mc.rs {
		if st := &mc.rs[g]; !mc.finished(g) {
			msg += fmt.Sprintf(" rank %d at event %d (%v)", g, st.pc, st.evs[st.pos].Kind)
		}
	}
	return fmt.Errorf("%s", msg)
}
