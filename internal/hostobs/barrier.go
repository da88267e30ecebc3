package hostobs

import "sync/atomic"

// Regime classifies how a collective member spent a wait. The cluster's
// ranks are coroutines that yield to their worker when a collective is not
// yet complete, so there is one regime: RegimePark, the time from that yield
// to the rank's resumption — during which its worker ran other ranks or, if
// none could run, polled. (The spin regime of the goroutine-per-rank barrier
// went with it; the type stays an index into MemberWait.Wait.)
type Regime int

const (
	RegimePark Regime = iota
	numRegimes
)

// RegimeName returns the stable label used in traces and metrics.
func RegimeName(r Regime) string {
	if r == RegimePark {
		return "park"
	}
	return "unknown"
}

// memberStats is one collective member's counters, padded so members on
// different cores never false-share. The wait histograms are per regime.
type memberStats struct {
	_        [64]byte
	phases   atomic.Int64 // barrier phases this member completed
	releases atomic.Int64 // phases this member owned the release of
	orderSum atomic.Int64 // Σ arrival positions (0 = first to arrive)
	wait     [numRegimes]Hist
	_        [64]byte
}

// BarrierStats accumulates host-side telemetry of the cluster's collective
// phases for up to Cap() members. All recording methods are safe on a nil
// receiver and do nothing, so an uninstrumented run pays only a nil check. A single
// BarrierStats may be shared by every arena of a Comm (root view and
// sub-communicators); members are indexed by view-local rank, so the
// histograms aggregate over all arenas a rank participates in.
type BarrierStats struct {
	members []memberStats
	aborts  atomic.Int64
}

// NewBarrierStats sizes the per-member counters for barriers of up to n
// members.
func NewBarrierStats(n int) *BarrierStats {
	if n < 1 {
		n = 1
	}
	return &BarrierStats{members: make([]memberStats, n)}
}

// Cap reports how many members the stats can record (0 on nil).
func (s *BarrierStats) Cap() int {
	if s == nil {
		return 0
	}
	return len(s.members)
}

// Arrive records that member arrived at a barrier phase in the given
// arrival position (0 = first of n). The running position sum exposes
// arrival-order skew: a member whose mean position hugs n-1 is the
// straggler every phase waits for.
func (s *BarrierStats) Arrive(member int, order int32) {
	if s == nil {
		return
	}
	m := &s.members[member]
	m.phases.Add(1)
	m.orderSum.Add(int64(order))
}

// Wait records ns nanoseconds spent by member waiting for a phase flip in
// the given regime.
func (s *BarrierStats) Wait(member int, r Regime, ns int64) {
	if s == nil {
		return
	}
	s.members[member].wait[r].Observe(ns)
}

// Release records that member completed the phase and released the others.
func (s *BarrierStats) Release(member int) {
	if s == nil {
		return
	}
	s.members[member].releases.Add(1)
}

// Abort records one aborted run.
func (s *BarrierStats) Abort() {
	if s == nil {
		return
	}
	s.aborts.Add(1)
}

// TotalWaitNs sums all members' wait time across regimes (0 on nil).
// Because members wait concurrently the sum can exceed wall time by up to
// a factor of Cap(); it never exceeds Cap() × wall time.
func (s *BarrierStats) TotalWaitNs() int64 {
	if s == nil {
		return 0
	}
	var total int64
	for i := range s.members {
		for r := range s.members[i].wait {
			total += s.members[i].wait[r].SumNs()
		}
	}
	return total
}

// RegimeWait is the snapshot of one member's waits in one regime.
type RegimeWait struct {
	Count   int64
	SumNs   int64
	Buckets [histBuckets]int64
}

// MemberWait is the snapshot of one barrier member.
type MemberWait struct {
	Phases      int64
	Releases    int64
	MeanArrival float64 // mean arrival position, 0 = always first
	Wait        [numRegimes]RegimeWait
}

// BarrierSnapshot is a point-in-time copy of all members' counters.
type BarrierSnapshot struct {
	Members []MemberWait
	Aborts  int64
}

// Snapshot copies the counters (nil receiver → zero snapshot). Safe to
// call while recording continues; each counter is read atomically.
func (s *BarrierStats) Snapshot() BarrierSnapshot {
	if s == nil {
		return BarrierSnapshot{}
	}
	out := BarrierSnapshot{
		Members: make([]MemberWait, len(s.members)),
		Aborts:  s.aborts.Load(),
	}
	for i := range s.members {
		m := &s.members[i]
		mw := &out.Members[i]
		mw.Phases = m.phases.Load()
		mw.Releases = m.releases.Load()
		if mw.Phases > 0 {
			mw.MeanArrival = float64(m.orderSum.Load()) / float64(mw.Phases)
		}
		for r := range m.wait {
			mw.Wait[r] = RegimeWait{
				Count:   m.wait[r].Count(),
				SumNs:   m.wait[r].SumNs(),
				Buckets: m.wait[r].Snapshot(),
			}
		}
	}
	return out
}
