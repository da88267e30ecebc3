package replay

import (
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
// synchronization depth, and a blocked rank's re-check is O(log) lookups.
// A recorded schedule cannot deadlock (replay blocking is a subset of the
// original run's blocking); the no-progress check below guards against
// truncated or hand-edited schedules. Nothing is allocated per event: a rank
// fetches its next event through a cursor over its wire bytes, send slots
// and collective instances are recycled, and the lookup tables are the ones
// the schedule's validating scan built once (linear in ranks + view members
// + distinct communicating pairs, so a hostile schedule cannot inflate them).

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
// (view, seq) needs no map.
type viewState struct {
	members []int
	rounds  float64     // Rounds(len(members))
	seq     []int32     // per local rank: collectives completed on this view
	live    []*collInst // live[head+i] is instance base+i
	head    int
	base    int32
	free    []*collInst
}

// rankState is one rank's replay cursor; the float fields are the rank's
// K-wide windows into the machine's flat n·K arrays.
type rankState struct {
	off       int // of the next event in the rank's stream
	pc        int // its index
	envIter   int32
	rtFinal   bool
	published bool      // current collective event already contributed
	clock     []float64 // simulated clocks
	rt        []float64 // recoveryTime accumulators
	t0        []float64 // last RecStart clocks
	envStart  []float64
}

// machine is the full replay state for one RecostAll call.
type machine struct {
	s   *Schedule
	ms  []CostModel
	out []*Replayed
	rs  []rankState
	vs  []viewState

	// Point-to-point boxes: one FIFO per (src,dst) pair of s.pairDst,
	// threaded through the recycled slots.
	qhead    []int32
	qtail    []int32
	slots    []sendSlot
	slotT    []float64
	freeSlot int32

	acctB, acctM int64 // modeled traffic booked so far
}

// Recost replays the schedule under machine model m. Safe for concurrent
// calls on one Schedule (it is read-only; all replay state is the call's).
func (s *Schedule) Recost(m CostModel) (*Replayed, error) {
	reps, err := s.RecostAll([]CostModel{m})
	if err != nil {
		return nil, err
	}
	return reps[0], nil
}

// RecostAll replays the schedule under every model in one walk and returns
// one Replayed per model, in order; element j is bit-identical to
// Recost(models[j]). A schedule that fails to replay fails for every model
// alike. Safe for concurrent calls on one Schedule.
func (s *Schedule) RecostAll(models []CostModel) ([]*Replayed, error) {
	mc, err := newMachine(s, models)
	if err != nil {
		return nil, err
	}
	for done := false; !done; {
		progress := false
		done = true
		for g := range mc.rs {
			adv, err := mc.runRank(g)
			if err != nil {
				return nil, err
			}
			progress = progress || adv
			done = done && mc.rs[g].off == len(s.streams[g])
		}
		if !done && !progress {
			return nil, mc.deadlockErr()
		}
	}

	for j, out := range mc.out {
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
	return mc.out, nil
}

// newMachine sizes the replay state. The streams were validated when the
// schedule was built; Nodes and Views are exported fields and are checked
// here, so that re-costing any schedule returns a result or an error.
func newMachine(s *Schedule, models []CostModel) (*machine, error) {
	n, k := s.Nodes, len(models)
	if n < 0 || len(s.streams) != n {
		return nil, fmt.Errorf("replay: schedule declares %d nodes but carries %d event streams", n, len(s.streams))
	}
	if err := checkViews(n, s.Views); err != nil {
		return nil, err
	}
	mc := &machine{s: s, ms: models, freeSlot: -1}

	members := 0
	for _, view := range s.Views {
		members += len(view)
	}
	seq := make([]int32, members)
	mc.vs = make([]viewState, len(s.Views))
	for v, view := range s.Views {
		mc.vs[v] = viewState{
			members: view,
			rounds:  Rounds(len(view)),
			seq:     seq[:len(view):len(view)],
		}
		seq = seq[len(view):]
	}

	mc.qhead = make([]int32, 2*len(s.pairDst))
	for i := range mc.qhead {
		mc.qhead[i] = -1
	}
	mc.qhead, mc.qtail = mc.qhead[:len(s.pairDst)], mc.qhead[len(s.pairDst):]

	mc.out = make([]*Replayed, k)
	for j := range mc.out {
		out := &Replayed{Clocks: make([]float64, n), Envelopes: make([][]EnvSpan, n), Events: s.events}
		if n > 0 && s.envOff[n] > 0 {
			// Each rank appends into its own capacity-limited window.
			all := make([]EnvSpan, s.envOff[n])
			for g := range out.Envelopes {
				out.Envelopes[g] = all[s.envOff[g]:s.envOff[g]:s.envOff[g+1]]
			}
		}
		mc.out[j] = out
	}

	f := make([]float64, 4*n*k)
	mc.rs = make([]rankState, n)
	for g := range mc.rs {
		w := f[4*g*k:]
		mc.rs[g] = rankState{clock: w[:k:k], rt: w[k : 2*k : 2*k], t0: w[2*k : 3*k : 3*k], envStart: w[3*k : 4*k : 4*k]}
	}
	return mc, nil
}

// runRank executes rank g's events until it blocks or finishes, reporting
// whether it made any progress. A blocked event is decoded again next sweep.
func (mc *machine) runRank(g int) (bool, error) {
	st := &mc.rs[g]
	c := cursor{data: mc.s.streams[g], off: st.off}
	var e Event
	advanced := false
	for c.off < len(c.data) {
		c.event(&e) // cannot fail: the scan decoded these bytes before
		ok, err := mc.step(g, st, &e)
		if err != nil {
			return advanced, fmt.Errorf("replay: rank %d event %d (%v): %w", g, st.pc, e.Kind, err)
		}
		if !ok {
			return advanced, nil
		}
		st.off = c.off
		st.pc++
		advanced = true
	}
	return advanced, nil
}

// step executes one event; false means blocked (retry later).
func (mc *machine) step(g int, st *rankState, e *Event) (bool, error) {
	clock := st.clock
	ms := mc.ms[:len(clock)]
	switch e.Kind {
	case KindCompute:
		for j := range clock {
			clock[j] += e.Val * ms[j].FlopTime
		}
	case KindClockAdd:
		for j := range clock {
			clock[j] += e.Val
		}
	case KindSend:
		q, _ := mc.pair(g, e.Peer) // every send's pair was listed by the scan
		sl := mc.newSlot(e.Bytes)
		sendTime := mc.slotT[int(sl)*len(clock):][:len(clock)]
		for j := range clock {
			clock[j] += ms[j].Overhead
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
		q, ok := mc.pair(int(e.Peer), int32(g))
		if !ok || mc.qhead[q] < 0 {
			return false, nil
		}
		sl := mc.qhead[q]
		if mc.qhead[q] = mc.slots[sl].next; mc.qhead[q] < 0 {
			mc.qtail[q] = -1
		}
		bytes := float64(mc.slots[sl].bytes)
		sendTime := mc.slotT[int(sl)*len(clock):][:len(clock)]
		for j := range clock {
			arrival := sendTime[j] + ms[j].Latency + bytes*ms[j].BytePeriod
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
	case KindEnvStart:
		st.envIter = e.Peer
		copy(st.envStart, clock)
	case KindEnvEnd:
		for j := range clock {
			if clock[j] > st.envStart[j] { // obs.Envelope drops empty spans
				envs := &mc.out[j].Envelopes[g]
				*envs = append(*envs, EnvSpan{Iter: int(st.envIter), Start: st.envStart[j], End: clock[j]})
			}
		}
	case KindRTFinal:
		st.rtFinal = true
	}
	return true, nil
}

// stepCollective replays one member's half of a collective.
func (mc *machine) stepCollective(g int, st *rankState, e *Event) (bool, error) {
	if int(e.View) >= len(mc.vs) { // Views may have shrunk since the scan
		return false, fmt.Errorf("view %d out of range", e.View)
	}
	vs := &mc.vs[e.View]
	n := len(vs.members)
	me, ok := slices.BinarySearch(vs.members, g)
	if !ok {
		return false, fmt.Errorf("rank not a member of view %d %v", e.View, vs.members)
	}
	clock := st.clock
	k := len(clock)
	ms := mc.ms[:k]
	inst := vs.instance(vs.seq[me], k)
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
			for j := range clock {
				clock[j] += ms[j].Overhead
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
		vs.retire()
	}
	return true, nil
}

// instance returns the view's instance number seq, creating it — from the
// free list when possible — if this member is the first to reach it.
func (vs *viewState) instance(seq int32, k int) *collInst {
	if i := vs.head + int(seq-vs.base); i < len(vs.live) {
		return vs.live[i]
	}
	var inst *collInst
	if last := len(vs.free) - 1; last >= 0 {
		inst, vs.free = vs.free[last], vs.free[:last]
	} else {
		nk := len(vs.members) * k
		f := make([]float64, nk+k)
		inst = &collInst{entries: f[:nk], agg: f[nk:]}
	}
	vs.live = append(vs.live, inst)
	return inst
}

// retire recycles the oldest live instance once every member has departed
// it, compacting the FIFO whenever its dead prefix reaches half its length
// (amortized O(1), and the slice stays as short as the live window).
func (vs *viewState) retire() {
	inst := vs.live[vs.head]
	inst.bytes, inst.arrived, inst.departed, inst.rootSeen = 0, 0, 0, false
	vs.free = append(vs.free, inst)
	vs.head++
	vs.base++
	if 2*vs.head >= len(vs.live) {
		vs.live = vs.live[:copy(vs.live, vs.live[vs.head:])]
		vs.head = 0
	}
}

// pair returns the index of the (src,dst) FIFO; false if src never sends to
// dst anywhere in the schedule.
func (mc *machine) pair(src int, dst int32) (int32, bool) {
	lo := mc.s.pairOff[src]
	i, ok := slices.BinarySearch(mc.s.pairDst[lo:mc.s.pairOff[src+1]], dst)
	return lo + int32(i), ok
}

// newSlot takes a send slot off the free list, growing the pool when every
// slot is in flight.
func (mc *machine) newSlot(bytes int64) int32 {
	sl := mc.freeSlot
	if sl >= 0 {
		mc.freeSlot = mc.slots[sl].next
	} else {
		sl = int32(len(mc.slots))
		mc.slots = append(mc.slots, sendSlot{})
		mc.slotT = slices.Grow(mc.slotT, len(mc.ms))[:len(mc.slots)*len(mc.ms)]
	}
	mc.slots[sl] = sendSlot{bytes: bytes, next: -1}
	return sl
}

// deadlockErr describes where every unfinished rank is stuck — reached only
// for schedules that were truncated or edited after recording.
func (mc *machine) deadlockErr() error {
	msg := "replay: no progress (truncated or inconsistent schedule); stuck:"
	for g := range mc.rs {
		if st := &mc.rs[g]; st.off < len(mc.s.streams[g]) {
			msg += fmt.Sprintf(" rank %d at event %d (%v)", g, st.pc, Kind(mc.s.streams[g][st.off]))
		}
	}
	return fmt.Errorf("%s", msg)
}
