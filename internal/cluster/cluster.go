// Package cluster simulates the distributed-memory machine the paper runs
// on: N nodes executing the same SPMD program, exchanging messages, with
// node-failure events injected by the application layer.
//
// Each node is a coroutine, resumed by one of a few worker goroutines until
// it blocks (sched.go): a receive on an empty inbox and a collective that is
// not yet complete record what the node waits for and yield to the worker.
// Point-to-point messages land in one inbox per receiver, FIFO per (sender,
// receiver), with payload buffers drawn from the receiver's free list, and
// collectives (allreduce, broadcast, gather, barrier) run over a per-view
// shared-memory arena — preallocated per-rank slot buffers, an arrival
// counter and a phase word — with deterministic, rank-ordered reductions, so
// floating-point results are reproducible run to run and do not depend on
// how many workers there are. In steady state neither path allocates: the
// arena slots, the send buffers and the receive buffers are all recycled.
//
// # Simulated time
//
// The paper reports wall-clock runtimes on the VSC3 cluster. Since this
// reproduction runs all "nodes" on one host, wall-clock would conflate host
// scheduling with algorithmic cost. Instead every node carries a simulated
// clock advanced by a LogGP-style cost model:
//
//   - computation: Compute(flops) advances the clock by flops·FlopTime;
//   - a point-to-point message costs the sender Overhead and delivers at
//     send-clock + Latency + bytes·BytePeriod (the receiver's clock becomes
//     the max of its own clock and the delivery time);
//   - nonblocking point-to-point (ISend, IRecv+Wait) uses the same costs,
//     but because the receiver's clock only advances to the delivery time at
//     Wait, any Compute between the post and the Wait overlaps with the
//     modeled message flight — communication the application hides behind
//     local work is hidden in the simulated runtime too;
//   - collectives over n nodes synchronize all participants to
//     max(clocks) + ⌈log₂ n⌉·(Latency + bytes·BytePeriod).
//
// The collective arena is a host-side execution detail: the modeled cost and
// the modeled traffic (the messages the retired star implementation would
// have sent) are accounted identically, so simulated clocks and byte
// counters are bit-for-bit unchanged — only the host does less work.
//
// The solver's reported runtime is the maximum clock over nodes, which is
// deterministic and host-independent; relative overheads (the paper's
// metric) therefore depend only on algorithmic communication and compute
// volume. Wall-clock is tracked as well for sanity checks.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"esrp/internal/hostobs"
	"esrp/internal/replay"
)

// CostModel holds the LogGP-style machine parameters of the simulated
// cluster, all in seconds (per flop / per message / per byte). It is
// replay's type, so the live clock and the re-coster share its collective
// formulas (CollectiveCost, GatherRootClock).
type CostModel = replay.CostModel

// DefaultCostModel returns parameters loosely calibrated to the paper's
// platform (VSC3: QDR InfiniBand fat-tree, one MPI process per node, and an
// effective SpMV rate implied by 10 279 iterations of Emilia_923 on 128
// nodes in 14.66 s): ~0.7 GF/s effective per-process compute, ~1.8 µs
// latency, ~3 GB/s effective point-to-point bandwidth.
func DefaultCostModel() CostModel {
	return CostModel{
		FlopTime:   1.0 / 0.7e9,
		Latency:    1.8e-6,
		BytePeriod: 1.0 / 3e9,
		Overhead:   0.4e-6,
	}
}

// message is one point-to-point transmission.
type message struct {
	src, tag int // global sender rank, protocol tag
	floats   []float64
	ints     []int
	sendTime float64 // sender's simulated clock at send
}

// bytes returns the modeled payload size.
func (m *message) bytes() int { return 8*len(m.floats) + 8*len(m.ints) }

// inbox is the receive side of one node: the messages delivered and not yet
// received, in arrival order — so FIFO per sender — plus a free list of
// payload buffers. Senders draw their payload copies from the destination's
// free list and the receiver returns them via Node.Release, so steady-state
// traffic recycles a fixed working set instead of allocating per message.
// One mutex guards both; at most one sender per worker contends for it.
type inbox struct {
	mu    sync.Mutex
	queue []message
	pool  [][]float64

	// pushed counts deliveries. A receiver that found nothing from its
	// sender blocks on the count it read before searching: until the count
	// moves, searching again would find the same. When it moves the worker
	// resumes the receiver to search again — in vain if the delivery was
	// some other sender's, which measured cheaper than having the worker
	// search under the mutex on every sweep.
	pushed atomic.Uint32
}

const (
	inboxDepth = 16 // queue capacity carved from the Comm's slab; deeper queues grow on their own
	poolDepth  = 64 // free-list bound per inbox
)

// push delivers m. It never blocks: the collectives keep the nodes within
// one round of each other, so a queue holds at most a round's messages.
func (ib *inbox) push(m message) {
	ib.mu.Lock()
	ib.queue = append(ib.queue, m)
	ib.mu.Unlock()
	ib.pushed.Add(1)
}

// take removes the oldest message from global rank src into m and reports
// whether there was one.
func (ib *inbox) take(src int, m *message) bool {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for i := range ib.queue {
		if ib.queue[i].src == src {
			*m = ib.queue[i]
			last := len(ib.queue) - 1
			copy(ib.queue[i:], ib.queue[i+1:])
			ib.queue[last] = message{} // drop the payload references
			ib.queue = ib.queue[:last]
			return true
		}
	}
	return false
}

// getBuf pops the best-fitting free buffer with capacity in [n, 2n+32] (or
// allocates one). Traffic patterns here are static per (pair, tag), so the
// most recently released buffer is almost always an exact fit and the
// top-down scan stops immediately. The fit ceiling matters when payloads of
// very different sizes share one receiver (halo exchanges next to buddy
// checkpoints): a small request must never strip the pool's one large
// buffer — the next large send would allocate afresh every round — so badly
// oversized buffers are left in place and a fresh small buffer (which joins
// the pool's fixed working set on Release) is allocated instead.
func (ib *inbox) getBuf(n int) []float64 {
	limit := 2*n + 32
	ib.mu.Lock()
	best := -1
	for i := len(ib.pool) - 1; i >= 0; i-- {
		if c := cap(ib.pool[i]); c >= n && c <= limit && (best < 0 || c < cap(ib.pool[best])) {
			best = i
			if c == n {
				break
			}
		}
	}
	if best >= 0 {
		buf := ib.pool[best]
		ib.pool[best] = ib.pool[len(ib.pool)-1]
		ib.pool = ib.pool[:len(ib.pool)-1]
		ib.mu.Unlock()
		return buf[:n]
	}
	ib.mu.Unlock()
	return make([]float64, n)
}

// putBuf returns a buffer to the free list (dropped when full).
func (ib *inbox) putBuf(buf []float64) {
	if cap(buf) == 0 {
		return
	}
	ib.mu.Lock()
	if len(ib.pool) < poolDepth {
		ib.pool = append(ib.pool, buf[:0])
	}
	ib.mu.Unlock()
}

// Comm is the simulated machine: the nodes' states and inboxes, the
// collective arenas and the cost model.
type Comm struct {
	n     int
	model CostModel

	// states is every node's mutable state — clock, counters, inbox, wait
	// record, coroutine — one slice so a run costs one allocation for all
	// ranks. Only the node itself and the worker that owns it touch an
	// element, the inbox excepted; Run sums the traffic counters once every
	// worker returned.
	states              []nodeState
	bytesSent, msgsSent int64       // Σ over states, filled by Run
	ran                 atomic.Bool // Run was called; a Comm is single-use

	root *arena // the view of all n nodes

	arenaMu sync.Mutex
	arenas  map[string]*arena // sub-view arenas keyed by member-rank set; nil until the first Sub

	// aborted is the one flag a failed run raises: the workers poll it and
	// unwind every rank they own. failErr is the first failure, written by
	// whoever raised the flag and read by Run when the workers have returned.
	aborted atomic.Bool
	failErr error

	quiet census // the workers' agreement that nothing can run any more

	rep       *replay.Recorder      // nil = no schedule recording (the default)
	hostStats *hostobs.BarrierStats // nil = no host telemetry (the default)

	wallTime time.Duration
}

// New creates a simulated cluster of n nodes.
func New(n int, model CostModel) *Comm {
	if n <= 0 {
		panic(fmt.Sprintf("cluster: invalid node count %d", n))
	}
	c := &Comm{n: n, model: model, states: make([]nodeState, n)}
	// One slab each for the inbox queues and the free lists, carved with
	// their full capacity up front: a queue regrows only past inboxDepth,
	// putBuf never.
	queues := make([]message, n*inboxDepth)
	pools := make([][]float64, n*poolDepth)
	all := make([]int, n)
	for i := range c.states {
		ib := &c.states[i].inbox
		ib.queue = queues[i*inboxDepth : i*inboxDepth : (i+1)*inboxDepth]
		ib.pool = pools[i*poolDepth : i*poolDepth : (i+1)*poolDepth]
		all[i] = i
	}
	c.root = newArena(all)
	return c
}

// ObserveHost attaches host-side collective telemetry: every arena — the
// root view's and any sub-communicator's — records per-member wait time
// (from the yield of a member that arrived early to its resumption),
// arrival-order skew and releases into st, and a failed run one abort.
// Members are indexed by view-local rank, so st must have capacity ≥ n.
// Must be called before Run; a nil st (or not calling
// ObserveHost) keeps the zero-overhead disabled path.
func (c *Comm) ObserveHost(st *hostobs.BarrierStats) {
	if st != nil && st.Cap() < c.n {
		panic(fmt.Sprintf("cluster: ObserveHost stats capacity %d < %d nodes", st.Cap(), c.n))
	}
	c.hostStats = st
}

// RecordSchedule attaches a schedule recorder: each node then appends its
// abstract event stream (compute, p2p, collectives) into its own per-rank
// buffer, and every collective arena registers its view membership, so the
// finished recording can be re-costed under any CostModel (see
// internal/replay). Must be called before Run; a nil recorder (or not
// calling RecordSchedule) keeps the zero-overhead disabled path.
func (c *Comm) RecordSchedule(rec *replay.Recorder) {
	if rec == nil {
		return
	}
	c.rep = rec
	rec.Init(c.n)
	// The root arena already exists (New creates it); sub-view arenas
	// appear during Run and register in arenaFor.
	c.root.repID = rec.RegisterView(c.root.ranks)
}

// errAborted is what a blocked node unwinds with — as a panic its coroutine
// recovers — once the run has failed elsewhere.
var errAborted = errors.New("cluster: aborted")

// errDeadlock marks a run in which no node can ever run again; Run replaces
// it with the list of what each node waits for.
var errDeadlock = errors.New("cluster: deadlock")

// fail aborts the run. The first error is the one Run returns.
func (c *Comm) fail(err error) {
	if c.aborted.CompareAndSwap(false, true) {
		c.failErr = err
		c.hostStats.Abort() // nil-safe
	}
}

// arenaFor returns the collective arena shared by all members of the given
// global-rank set — ascending and in range, which Sub has checked — creating
// it on first use. Callers on every member pass the identical rank list, so
// the key is canonical.
func (c *Comm) arenaFor(ranks []int) *arena {
	if len(ranks) == c.n {
		return c.root
	}
	key := make([]byte, 0, 4*len(ranks))
	for _, r := range ranks {
		key = strconv.AppendInt(key, int64(r), 36)
		key = append(key, ',')
	}
	c.arenaMu.Lock()
	defer c.arenaMu.Unlock()
	a, ok := c.arenas[string(key)]
	if !ok {
		a = newArena(append([]int(nil), ranks...))
		if c.rep != nil {
			// Assigned inside the critical section, so every member that
			// looks the arena up afterwards sees the id.
			a.repID = c.rep.RegisterView(a.ranks)
		}
		if c.arenas == nil {
			c.arenas = make(map[string]*arena)
		}
		c.arenas[string(key)] = a
	}
	return a
}

// MaxClock returns the maximum simulated clock over all nodes after Run —
// the modeled runtime of the program.
func (c *Comm) MaxClock() float64 {
	m := 0.0
	for i := range c.states {
		m = max(m, c.states[i].clock)
	}
	return m
}

// WallTime returns the host wall-clock duration of Run.
func (c *Comm) WallTime() time.Duration { return c.wallTime }

// BytesSent returns the total payload bytes all nodes sent, after Run (the
// nodes count their own traffic; Run adds it up when they have finished).
func (c *Comm) BytesSent() int64 { return c.bytesSent }

// MsgsSent returns the total number of messages all nodes sent, after Run.
func (c *Comm) MsgsSent() int64 { return c.msgsSent }

// arena is one communicator view: its members and their shared-memory
// collective workspace — per-member slot buffers and clock cells, an arrival
// counter and a phase word. A collective is ONE phase: every member
// publishes its contribution and entry clock into the current bank and
// arrives; the last arriver moves the phase, and every member reads what it
// needs. For Allreduce the last arriver reduces the bank before it moves the
// phase — in ascending rank order, so results are bitwise deterministic
// whichever member that is, and in place into member 0's slot and clock cell
// — and the others only copy that result out. Slots are double-buffered in
// two banks selected by the phase's parity: a member racing ahead into
// collective k+1 writes the other bank, so it cannot clobber a slot a slower
// member is still reading in collective k — that's what makes the single
// phase sufficient, for the folded slot 0 as for any other: a bank is
// rewritten only two collectives later. (A member can be at most one
// collective ahead: the phase of k+1 cannot move until everyone arrived
// there, and arriving at k+1 implies having finished reading bank k.)
//
// The arena carries no payload semantics: every member's slot writes happen
// before its arrival increment, the last arriver's increment after all of
// them, the phase move after its fold, and every reader observes the move.
type arena struct {
	ranks []int // global members, ascending (the canonical arena key)
	repID int32 // replay view id (meaningful only while recording)

	slots  [][]float64 // contribution scratch of member m in bank b at [b·n+m] (owner-written)
	clocks []float64   // simulated clock at entry, same indexing

	arrived atomic.Int32  // members in the current phase so far; its last arriver resets it
	phase   atomic.Uint32 // completed collectives
}

// slotFloats is the slot capacity carved from the arena's slab: PCG's fused
// dot products reduce one to three floats. A wider payload (a gathered
// block, a broadcast vector) grows its slot on first use.
const slotFloats = 4

func newArena(ranks []int) *arena {
	n := len(ranks)
	a := &arena{ranks: ranks, slots: make([][]float64, 2*n), clocks: make([]float64, 2*n)}
	slab := make([]float64, 2*n*slotFloats)
	for i := range a.slots {
		a.slots[i] = slab[i*slotFloats : i*slotFloats : (i+1)*slotFloats]
	}
	return a
}

// slot returns the contribution buffer at index i (bank·n + member) resized
// to n floats, growing its capacity on first use only — steady-state
// collectives reuse it.
func (a *arena) slot(i, n int) []float64 {
	if cap(a.slots[i]) < n {
		a.slots[i] = make([]float64, n)
	}
	a.slots[i] = a.slots[i][:n]
	return a.slots[i]
}

// nodeState is the mutable state of one node, shared between the node, all
// sub-communicator handles derived from it and the worker that runs it. The
// states of all nodes are neighbours in Comm.states.
type nodeState struct {
	clock     float64
	bytesSent int64
	msgsSent  int64
	sched     *replay.Rank // nil unless Comm.RecordSchedule attached one

	coroutine
	root  Node // the handle Run's body receives
	inbox inbox
}

// Node is one simulated cluster node's handle, bound to a communicator view.
// All methods must be called only from within the body Run started for this
// node.
type Node struct {
	comm  *Comm
	ar    *arena // the view: its members and their collective arena
	g     int    // global rank
	rank  int    // rank within the view
	state *nodeState
}

// Rank returns this node's rank within the current view.
func (nd *Node) Rank() int { return nd.rank }

// Size returns the number of nodes in the current view.
func (nd *Node) Size() int { return len(nd.ar.ranks) }

// GlobalRank returns the node's rank in the top-level communicator.
func (nd *Node) GlobalRank() int { return nd.g }

// GlobalOf returns the top-level rank of the given view rank — the inverse
// of the mapping Sub establishes. Callers deriving a sub-communicator from
// view-relative rank lists translate through this before calling Sub.
func (nd *Node) GlobalOf(viewRank int) int { return nd.ar.ranks[viewRank] }

// Clock returns the node's simulated time.
func (nd *Node) Clock() float64 { return nd.state.clock }

// AddClock advances the simulated clock by dt seconds (dt ≥ 0).
func (nd *Node) AddClock(dt float64) {
	if dt < 0 {
		panic("cluster: negative clock advance")
	}
	nd.state.clock += dt
	nd.state.sched.ClockAdd(dt)
}

// Compute advances the clock by flops·FlopTime; w says what the flops are
// spent on, for the span a trace derives from the recorded event.
func (nd *Node) Compute(w replay.Work, flops float64) {
	nd.state.clock += float64(flops * nd.comm.model.FlopTime)
	nd.state.sched.Compute(w, flops)
}

// Sched returns the node's replay event stream — nil when no schedule
// recorder is attached, which every replay.Rank method tolerates, so the
// core layer marks its recovery sections unconditionally. Shared across
// Sub handles (it lives on nodeState).
func (nd *Node) Sched() *replay.Rank { return nd.state.sched }

// account books msgs messages of bytes total payload against the node (for
// a collective, the modeled traffic the arena executes without actual
// messages). The machine-wide totals are summed from the nodes' when Run
// ends, so the hot path touches no shared counter.
func (nd *Node) account(msgs, bytes int64) {
	nd.state.bytesSent += bytes
	nd.state.msgsSent += msgs
}

// Sub returns a handle bound to the sub-communicator consisting of the given
// global ranks (ascending order defines the new rank order). It returns nil
// if this node is not a member. The handle shares the node's clock and
// counters; all members share one collective arena, looked up by the rank
// set. The reconstruction phase uses this to run a distributed inner solver
// on the replacement nodes only.
func (nd *Node) Sub(globalRanks []int) *Node {
	prev, me := -1, -1
	for i, r := range globalRanks {
		if r <= prev || r >= nd.comm.n {
			panic(fmt.Sprintf("cluster: Sub ranks must be ascending and in range, got %v", globalRanks))
		}
		prev = r
		if r == nd.g {
			me = i
		}
	}
	if me < 0 {
		return nil
	}
	return &Node{comm: nd.comm, ar: nd.comm.arenaFor(globalRanks), g: nd.g, rank: me, state: nd.state}
}

// send delivers a message to the local-rank dst of the current view, costing
// the sender the per-message Overhead. The payload is copied — callers may
// reuse their buffers — but the copy lands in a buffer drawn from the
// destination's free list, so steady-state traffic does not allocate. The
// receiver may hand the buffer back with Release once it is done with the
// payload.
func (nd *Node) send(dst, tag int, floats []float64, ints []int) {
	gdst := nd.ar.ranks[dst]
	ib := &nd.comm.states[gdst].inbox
	m := message{src: nd.g, tag: tag}
	if floats != nil {
		m.floats = ib.getBuf(len(floats))
		copy(m.floats, floats)
	}
	if ints != nil {
		m.ints = append(make([]int, 0, len(ints)), ints...)
	}
	nd.state.clock += nd.comm.model.Overhead
	m.sendTime = nd.state.clock
	nd.account(1, int64(m.bytes()))
	nd.state.sched.Send(gdst, int64(m.bytes()))
	ib.push(m)
}

// recv receives the next message from local-rank src of the current view,
// blocking until there is one, and advances the receiver's clock to the
// modeled delivery time. The message's tag must equal tag; a mismatch
// indicates a protocol bug and panics.
func (nd *Node) recv(src, tag int) message {
	gsrc := nd.ar.ranks[src]
	st := nd.state
	var m message
	for {
		seen := st.inbox.pushed.Load() // before the search, so a delivery during it is not missed
		if st.inbox.take(gsrc, &m) {
			break
		}
		st.block(wait{kind: waitRecv, src: gsrc, tag: tag, seen: seen})
	}
	if m.tag != tag {
		panic(fmt.Sprintf("cluster: node %d expected tag %d from %d, got %d", nd.g, tag, gsrc, m.tag))
	}
	arrival := m.sendTime + nd.comm.model.Latency + float64(float64(m.bytes())*nd.comm.model.BytePeriod)
	if arrival > st.clock {
		st.clock = arrival
	}
	st.sched.Recv(gsrc)
	return m
}

// Send transmits floats to view-rank dst with the given tag.
func (nd *Node) Send(dst, tag int, floats []float64) {
	nd.send(dst, tag, floats, nil)
}

// SendFI transmits a float payload plus an integer payload.
func (nd *Node) SendFI(dst, tag int, floats []float64, ints []int) {
	nd.send(dst, tag, floats, ints)
}

// Recv receives a float payload from view-rank src with the given tag. The
// returned slice is owned by the caller; pass it to Release when done to
// recycle it, or retain it indefinitely.
func (nd *Node) Recv(src, tag int) []float64 {
	return nd.recv(src, tag).floats
}

// Release returns a payload slice previously obtained from Recv / RecvFI /
// Request.Wait to this node's free list, so a later sender to this node can
// reuse it. Releasing a buffer the caller still reads from — or one not
// obtained from a receive — corrupts future messages; when in doubt, don't:
// unreleased buffers are simply collected by the GC.
func (nd *Node) Release(buf []float64) {
	nd.state.inbox.putBuf(buf)
}

// Request is the handle of a nonblocking receive posted with IRecv. The zero
// value is invalid; requests are single-use and, like every Node method,
// belong to the node's body.
type Request struct {
	nd       *Node
	src, tag int
	done     bool
	floats   []float64
}

// ISend transmits floats to view-rank dst without blocking. The payload is
// captured at post time (the simulated NIC owns a copy), so the caller may
// reuse the buffer immediately — the MPI_Isend+MPI_Wait pair collapses into
// one call under this machine model. The sender's clock is charged the
// per-message Overhead at post, exactly as for Send.
func (nd *Node) ISend(dst, tag int, floats []float64) {
	nd.send(dst, tag, floats, nil)
}

// IRecv posts a nonblocking receive for a message from view-rank src with
// the given tag. Posting is free on the simulated clock; the LogGP delivery
// cost is applied by Wait. Compute performed between IRecv and Wait
// genuinely hides the message latency: the clock at Wait becomes
// max(own clock, sender clock + Latency + bytes·BytePeriod), so local work
// advancing the own clock overlaps with the modeled message flight instead
// of stacking on top of it.
func (nd *Node) IRecv(src, tag int) Request {
	return Request{nd: nd, src: src, tag: tag}
}

// Wait completes the receive, advancing the node's clock to the modeled
// delivery time if the message is still in flight, and returns the payload.
// Waiting twice returns the same payload without further clock effect.
func (r *Request) Wait() []float64 {
	if r.nd == nil {
		panic("cluster: Wait on a zero Request")
	}
	if !r.done {
		r.floats = r.nd.recv(r.src, r.tag).floats
		r.done = true
	}
	return r.floats
}

// RecvFI receives a float plus integer payload.
func (nd *Node) RecvFI(src, tag int) ([]float64, []int) {
	m := nd.recv(src, tag)
	return m.floats, m.ints
}

// Op selects the reduction operator for Allreduce.
type Op int

// Reduction operators.
const (
	OpSum Op = iota
	OpMax
	OpMin
)

func (op Op) apply(dst, src []float64) {
	switch op {
	case OpSum:
		for i := range dst {
			dst[i] += src[i]
		}
	case OpMax:
		for i := range dst {
			dst[i] = math.Max(dst[i], src[i])
		}
	case OpMin:
		for i := range dst {
			dst[i] = math.Min(dst[i], src[i])
		}
	default:
		panic(fmt.Sprintf("cluster: unknown op %d", op))
	}
}

// collectiveCost returns the modeled time for one size-`bytes` collective
// over this node's view.
func (nd *Node) collectiveCost(bytes int) float64 {
	return nd.comm.model.CollectiveCost(replay.Rounds(nd.Size()), float64(bytes))
}

// enter opens a collective for this member: the phase it belongs to and the
// first slot index of the bank that phase uses. Every member reads the same
// phase, because none enters collective k before it has seen k-1 complete
// and k cannot complete without it.
func (nd *Node) enter() (phase uint32, bank int) {
	phase = nd.ar.phase.Load()
	return phase, int(phase&1) * len(nd.ar.ranks)
}

// arrive counts this member into the phase — after it has published its
// slot — and reports whether it is the last, which owns the release and may
// first read and combine every slot.
func (nd *Node) arrive() (last bool) {
	order := nd.ar.arrived.Add(1) - 1
	nd.comm.hostStats.Arrive(nd.rank, order) // nil-safe, like Release and Wait below
	return int(order) == len(nd.ar.ranks)-1
}

// complete ends this member's part of the phase it arrived in. The last
// arriver — after whatever it did on the others' behalf — releases it: the
// arrival counter is reset first, which is safe because every next-phase
// arrival happens after observing the phase move. The others block until it
// has moved; the wall clock is read only when host telemetry is attached.
func (nd *Node) complete(phase uint32, last bool) {
	a, st := nd.ar, nd.comm.hostStats
	if last {
		a.arrived.Store(0)
		st.Release(nd.rank)
		a.phase.Add(1)
		return
	}
	var t0 time.Time
	if st != nil {
		t0 = time.Now()
	}
	nd.state.block(wait{kind: waitPhase, ar: a, phase: phase})
	if st != nil {
		st.Wait(nd.rank, hostobs.RegimePark, int64(time.Since(t0)))
	}
}

// Allreduce reduces x elementwise over all view members with operator op,
// leaving the identical result in x on every member. The last member to
// arrive applies the reduction over the arena slots in ascending rank order
// — the same order the retired rank-0 star used — and every member copies
// that one result, so results are bitwise deterministic and identical on all
// members. All members' clocks synchronize to
// max(member clocks) + collectiveCost; the traffic the star implementation
// would have sent (each member one payload up, rank 0 one payload down per
// member) is accounted so byte counters stay comparable run over run.
// Steady-state calls perform no heap allocation.
func (nd *Node) Allreduce(op Op, x []float64) {
	n := nd.Size()
	if n == 1 {
		return // no communication, no clock effect
	}
	me := nd.rank
	a := nd.ar
	phase, bank := nd.enter()

	copy(a.slot(bank+me, len(x)), x)
	a.clocks[bank+me] = nd.state.clock
	last := nd.arrive()
	if last {
		// Fold slots 1..n-1 of the bank into slot 0 and the largest entry
		// clock into its clock cell, in ascending rank order.
		acc, tmax := a.slots[bank][:len(x)], a.clocks[bank]
		for r := 1; r < n; r++ {
			op.apply(acc, a.slots[bank+r][:len(x)])
			tmax = max(tmax, a.clocks[bank+r])
		}
		a.clocks[bank] = tmax
	}
	nd.complete(phase, last)

	copy(x, a.slots[bank][:len(x)])
	nd.state.clock = a.clocks[bank] + nd.collectiveCost(8*len(x))

	payloadBytes := int64(8 * (len(x) + 1)) // star payload: body + clock
	msgs, bytes := int64(1), payloadBytes
	if me == 0 {
		msgs, bytes = int64(n-1), int64(n-1)*payloadBytes
	}
	nd.account(msgs, bytes)
	nd.state.sched.Collective(replay.KindAllreduce, a.repID, int64(8*len(x)), msgs, bytes, false)
}

// AllreduceScalar reduces a single value.
func (nd *Node) AllreduceScalar(op Op, v float64) float64 {
	buf := [1]float64{v}
	nd.Allreduce(op, buf[:])
	return buf[0]
}

// Bcast broadcasts data from view-rank root to all members, in place.
func (nd *Node) Bcast(root int, data []float64) {
	n := nd.Size()
	if n == 1 {
		return
	}
	me := nd.rank
	a := nd.ar
	phase, bank := nd.enter()
	if me == root {
		copy(a.slot(bank+me, len(data)), data)
		a.clocks[bank+me] = nd.state.clock
	}
	nd.complete(phase, nd.arrive())
	cost := nd.collectiveCost(8 * len(data))
	var msgs, bytes int64
	if me == root {
		nd.state.clock += cost
		msgs, bytes = int64(n-1), int64(n-1)*int64(8*(len(data)+1))
		nd.account(msgs, bytes)
	} else {
		copy(data, a.slots[bank+root][:len(data)])
		nd.state.clock = math.Max(a.clocks[bank+root], nd.state.clock) + cost
	}
	nd.state.sched.Collective(replay.KindBcast, a.repID, int64(8*len(data)), msgs, bytes, me == root)
}

// Gather collects each member's data slice at view-rank root. On root it
// returns one slice per rank (rank order); on other members it returns nil.
func (nd *Node) Gather(root int, data []float64) [][]float64 {
	n := nd.Size()
	me := nd.rank
	a := nd.ar
	phase, bank := nd.enter()

	copy(a.slot(bank+me, len(data)), data)
	a.clocks[bank+me] = nd.state.clock
	// Recorded at entry (before the non-root overhead advance): the replay
	// publishes the entry clock, then applies the same per-role arithmetic.
	// Bytes is this member's payload — the root replay sums the non-root
	// payloads for its serialization term.
	var msgs, bytes int64
	if me != root {
		msgs, bytes = 1, int64(8*(len(data)+1))
	}
	nd.state.sched.Collective(replay.KindGather, a.repID, int64(8*len(data)), msgs, bytes, me == root)
	if me != root {
		// The sender's clock advances only by its own send overhead; gather
		// is not synchronizing for non-roots on the simulated clock (the
		// arena phase is a host-side artifact with no modeled cost).
		nd.account(msgs, bytes)
		nd.state.clock += nd.comm.model.Overhead
	}
	nd.complete(phase, nd.arrive())
	var out [][]float64
	if me == root {
		out = make([][]float64, n)
		tmax := nd.state.clock
		totalBytes := 0
		for r := 0; r < n; r++ {
			out[r] = append([]float64(nil), a.slots[bank+r]...)
			if r == root {
				continue
			}
			tmax = max(tmax, a.clocks[bank+r])
			totalBytes += 8 * len(a.slots[bank+r])
		}
		nd.state.clock = nd.comm.model.GatherRootClock(tmax, replay.Rounds(n), float64(totalBytes))
	}
	return out
}
