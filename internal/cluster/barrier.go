package cluster

import (
	"runtime"
	"sync/atomic"
	"time"

	"esrp/internal/hostobs"
)

// barrier is the scalable synchronization core of a collective arena. It
// replaces the retired single-mutex sense-reversing barrier (one sync.Cond
// all rank goroutines serialized on) with a combining tree plus per-member
// park cells:
//
//   - Arrival climbs a tree of padded atomic counters with fan-in
//     combineArity: each member increments its leaf node, the last arriver
//     at every node propagates one increment to the parent, and the member
//     that completes the root owns the phase release. High rank counts
//     therefore contend on ⌈n/arity⌉ separate cache lines instead of one
//     mutex.
//   - Release is a single atomic phase-counter increment that every waiter
//     observes with a read-only spin on its own cached copy, followed by a
//     wake sweep over the members that declared themselves parked.
//   - Waiting is park-first. When the arena's members fit the host's
//     GOMAXPROCS, waiters spin briefly before parking (the releaser is
//     running on another P and the flip is imminent). When ranks
//     oversubscribe the cores — the common shape for large simulated
//     clusters — any cycle a waiter keeps is taken from the goroutines that
//     still have to arrive, so waiters park at once on their own one-token
//     channel.
//
// Parking protocol: a waiter publishes parked=1, rechecks the phase, and
// blocks on its wake channel. A releaser (phase flip or abort) sweeps the
// members and sends one token to every cell it swaps 1→0. The swap
// arbitrates the race with a waiter that saw the flip on its recheck: the
// swap's winner owns the token — releaser wins → it sends and the waiter
// must drain; waiter wins → no token is in flight. Every store(1) is
// therefore matched by at most one token, consumed before the next
// store(1), so a one-slot channel never blocks a releaser.
//
// The barrier carries no payload semantics: slot publication before arrival
// and slot reads after release are ordered by the atomic arrival chain
// (every member's slot writes happen before its leaf increment; the root
// completion happens after all increments, so the member that completes it
// may read and combine every slot; the phase flip happens after that; every
// reader observes the flip).
type barrier struct {
	n     int
	tree  []combineNode
	cells []parkCell

	phase   atomic.Uint32 // completed barrier phases; the "sense" waiters watch
	aborted atomic.Bool

	// spin is the bounded pre-park spin budget, chosen at construction:
	// positive when the members fit the host Ps, zero (park at once) when
	// the ranks oversubscribe them.
	spin int

	// stats is the optional host-telemetry sink (nil = uninstrumented; the
	// hot path then pays one nil check and touches no clock). arrivals is
	// the within-phase arrival sequence feeding the arrival-order skew
	// tally; the phase releaser resets it before flipping the phase, which
	// is safe because every next-phase arrival happens after observing the
	// flip.
	stats    *hostobs.BarrierStats
	arrivals atomic.Int32
}

// combineArity is the fan-in of the arrival tree. 4 keeps the tree shallow
// (⌈log₄ n⌉ levels) while spreading arrivals over n/4 leaf cache lines.
const combineArity = 4

// spinBudget bounds the pre-park spin when the arena's members fit the
// host's Ps.
const spinBudget = 192

// combineNode is one arrival counter of the tree, padded to its own cache
// line pair so concurrent leaf increments never false-share.
type combineNode struct {
	_      [64]byte
	count  atomic.Int32
	fanIn  int32
	parent int32 // index into tree; -1 = root
	_      [40]byte
}

// parkCell is one member's park flag and wake token slot, padded like the
// tree nodes: the owner writes parked, releasers swap it, and the channel
// carries exactly the swap winner's token.
type parkCell struct {
	_      [64]byte
	parked atomic.Uint32
	wake   chan struct{}
	_      [48]byte
}

// newBarrier builds the combining tree for n members (n ≥ 1). st is the
// optional telemetry sink (nil = uninstrumented); when set, it must have
// capacity for at least n members.
func newBarrier(n int, st *hostobs.BarrierStats) *barrier {
	b := &barrier{n: n, cells: make([]parkCell, n), stats: st}
	for i := range b.cells {
		b.cells[i].wake = make(chan struct{}, 1)
	}
	// Level sizes: ⌈n/arity⌉ leaves, then ⌈size/arity⌉ per level up to one
	// root. Nodes are laid out level by level so a node's parent is in the
	// next level's block.
	sizes := []int{(n + combineArity - 1) / combineArity}
	for sizes[len(sizes)-1] > 1 {
		s := sizes[len(sizes)-1]
		sizes = append(sizes, (s+combineArity-1)/combineArity)
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	b.tree = make([]combineNode, total)
	offset := 0
	childCount := n // fan-in source of the current level (members for leaves)
	for lvl, s := range sizes {
		next := offset + s
		for j := 0; j < s; j++ {
			nd := &b.tree[offset+j]
			fan := combineArity
			if rem := childCount - j*combineArity; rem < fan {
				fan = rem
			}
			nd.fanIn = int32(fan)
			if lvl == len(sizes)-1 {
				nd.parent = -1
			} else {
				nd.parent = int32(next + j/combineArity)
			}
		}
		offset = next
		childCount = s
	}
	if n <= runtime.GOMAXPROCS(0) {
		b.spin = spinBudget
	}
	return b
}

// arrive signals member me's arrival and reports whether me completed the
// phase (and therefore owns the release). The last arriver at each tree
// node resets it for the next phase before climbing — safe because the
// phase flip (and hence any next-phase arrival) happens after every reset.
func (b *barrier) arrive(me int) bool {
	idx := int32(me / combineArity)
	for {
		nd := &b.tree[idx]
		if nd.count.Add(1) < nd.fanIn {
			return false
		}
		nd.count.Store(0)
		if nd.parent < 0 {
			return true
		}
		idx = nd.parent
	}
}

// await is one full barrier phase for member me: arrive, and either release
// everyone (last member) or wait for the release. A collective that has work
// for the last arriver to do on the others' behalf (Allreduce's fold) calls
// the four parts itself and does that work between arrive and release.
func (b *barrier) await(me int) {
	p := b.enter(me)
	if b.arrive(me) {
		b.release(me)
		return
	}
	b.wait(me, p)
}

// enter opens a phase for member me and returns the phase number wait must
// see change. It panics with the abort error when the arena was aborted —
// callers unwind exactly as the retired cond-based barrier did.
func (b *barrier) enter(me int) uint32 {
	if b.aborted.Load() {
		panic(abortedPanic())
	}
	if st := b.stats; st != nil {
		st.Arrive(me, b.arrivals.Add(1)-1)
	}
	return b.phase.Load()
}

// release flips the phase and wakes the parked members. Only the member
// whose arrive returned true may call it.
func (b *barrier) release(me int) {
	if st := b.stats; st != nil {
		// Reset the arrival sequence for the next phase before the flip:
		// next-phase arrivals happen-after observing the flip, so none
		// can race the reset.
		b.arrivals.Store(0)
		st.Release(me)
	}
	b.phase.Add(1)
	b.wakeParked()
}

// wait blocks member me until phase p is released, panicking with the abort
// error when the arena is aborted first.
func (b *barrier) wait(me int, p uint32) {
	st := b.stats // nil on the uninstrumented path: no clock reads below
	var t0 time.Time
	if b.spin > 0 {
		if st != nil {
			t0 = time.Now()
		}
		for i := 0; i < b.spin; i++ {
			if b.phase.Load() != p {
				if st != nil {
					st.Wait(me, hostobs.RegimeSpin, int64(time.Since(t0)))
				}
				return
			}
			if b.aborted.Load() {
				panic(abortedPanic())
			}
		}
		if st != nil {
			st.Wait(me, hostobs.RegimeSpin, int64(time.Since(t0)))
		}
	}
	if st != nil {
		t0 = time.Now()
	}
	cell := &b.cells[me]
	for b.phase.Load() == p && !b.aborted.Load() {
		cell.parked.Store(1)
		if b.phase.Load() != p || b.aborted.Load() {
			if cell.parked.Swap(0) == 1 {
				break // reclaimed the park before any releaser saw it
			}
			<-cell.wake // a releaser won the swap; its token is in flight
			break
		}
		<-cell.wake
	}
	if st != nil {
		st.Wait(me, hostobs.RegimePark, int64(time.Since(t0)))
	}
	if b.aborted.Load() {
		panic(abortedPanic())
	}
}

// wakeParked sends one token to every member that declared itself parked.
// Called by the phase releaser and by abort; the parked swap guarantees at
// most one token per park declaration, so the one-slot sends never block.
func (b *barrier) wakeParked() {
	for i := range b.cells {
		if b.cells[i].parked.Swap(0) == 1 {
			b.cells[i].wake <- struct{}{}
		}
	}
}

// abort marks the barrier dead and unparks every waiter; spinning waiters
// observe the flag directly. Arrivals after abort panic on entry.
func (b *barrier) abort() {
	b.stats.Abort() // nil-safe
	b.aborted.Store(true)
	b.wakeParked()
}
