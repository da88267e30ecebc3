package replay

import (
	"fmt"

	"esrp/internal/obs"
)

// This file derives a solve's span timeline from its schedule: the re-cost
// walk knows each rank's clock before and after each event, and the
// schedule's markers say what the interval was spent on. The rule, the
// attribution state and why the markers carry no value are DESIGN.md §
// Observability.

// workKinds maps a Compute's Work to its span kind; regionKinds a Region to
// the span kinds of its sends ([0]) and of its receives ([1]).
var (
	workKinds = [workCount]obs.Kind{
		obs.KindVec, obs.KindPrecond, obs.KindSpMV, obs.KindSpMVInterior,
		obs.KindSpMVBoundary, obs.KindReconstruct, obs.KindInnerSolve,
	}
	regionKinds = [regionCount][2]obs.Kind{
		{obs.KindHaloPost, obs.KindHaloWait},
		{obs.KindCheckpoint, obs.KindCheckpoint},
		{obs.KindRecoverGather, obs.KindRecoverGather},
	}
)

// tracer is a traced walk's sink and per-rank attribution state.
type tracer struct {
	b     *obs.Builder
	ranks []traceRank
}

type traceRank struct {
	at          float64 // the clock after the rank's last event, where its next span starts
	iter        int
	phase       obs.Phase
	region      Region
	bytes, msgs int64 // booked so far: the rank's cumulative traffic

	// The open recovery envelope: its failure iteration and start clock.
	envIter  int
	envStart float64
}

// Trace re-costs the schedule under m, like Recost, and derives from the
// same walk what opts asks for of the solve's trace: the per-rank spans and
// recovery envelopes (Trace) and the series points (Series), with SimTime
// the walk's. A point carries its iteration, its clock and the sampling
// rank's cumulative bytes and messages; Step and RelRes are the solver's,
// which the schedule does not hold: samples, rank 0's series as the solve
// took it, gives them point by point, or leaves them zero when nil.
func (s *Schedule) Trace(m CostModel, opts obs.Options, samples []obs.IterPoint) (*Replayed, *obs.Trace, error) {
	var mc machine
	if err := mc.init(s, []CostModel{m}); err != nil {
		return nil, nil, err
	}
	mc.tr = &tracer{b: obs.NewBuilder(opts, s.Nodes), ranks: make([]traceRank, s.Nodes)}
	for g := range mc.tr.ranks {
		mc.tr.ranks[g].iter = -1
	}
	if err := mc.run(); err != nil {
		return nil, nil, err
	}
	rep := &mc.out[0]
	tr := mc.tr.b.Build(rep.SimTime)
	if samples != nil && len(samples) != len(tr.Series) {
		return nil, nil, fmt.Errorf("replay: the schedule holds %d series points, the solve sampled %d", len(tr.Series), len(samples))
	}
	for i, p := range samples {
		tr.Series[i].Step, tr.Series[i].RelRes = p.Step, p.RelRes
	}
	return rep, tr, nil
}

// note attributes rank g's event e, which has just moved its clock to now.
func (tr *tracer) note(g int, e *event, now float64) {
	r := &tr.ranks[g]
	var kind obs.Kind
	switch e.Kind {
	case KindCompute:
		kind = workKinds[e.Tag]
	case KindClockAdd: // a solve's one clock advance is the detection time
		kind = obs.KindDetect
	case KindSend, KindRecv:
		kind = regionKinds[r.region][e.Kind-KindSend]
	case KindAllreduce:
		kind = obs.KindAllreduce
	case KindBcast:
		kind = obs.KindBcast
	case KindGather:
		kind = obs.KindGather
	case KindIterNext:
		r.iter++
	case KindIterSet:
		r.iter = int(e.Peer)
	case KindRegion:
		r.region = Region(e.Tag)
	case KindEnvStart:
		r.phase = obs.PhaseRecovery
		r.envIter, r.envStart = int(e.Peer), now
	case KindEnvEnd:
		r.phase = obs.PhaseSteady
		if now > r.envStart { // not if either clock is NaN, which Envelope would keep
			tr.b.Envelope(g, r.envIter, r.envStart, now)
		}
	case KindPoint:
		tr.b.Point(g, obs.IterPoint{Iter: r.iter, Clock: now, Bytes: r.bytes, Msgs: r.msgs})
	}
	// Sends and collectives book AcctMsgs/AcctBytes; every other event
	// books none, and only the clock-moving ones are spans.
	r.bytes, r.msgs = r.bytes+e.AcctBytes, r.msgs+e.AcctMsgs
	if now > r.at {
		tr.b.Span(g, obs.Span{Kind: kind, Phase: r.phase, Iter: r.iter, Start: r.at, End: now})
		r.at = now
	}
}
