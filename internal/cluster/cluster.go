// Package cluster simulates the distributed-memory machine the paper runs
// on: N nodes executing the same SPMD program, exchanging messages, with
// node-failure events injected by the application layer.
//
// Each node is a goroutine; point-to-point messages travel over lazily
// created FIFO channels whose payload buffers come from a per-receiver
// free list, and collectives (allreduce, broadcast, gather, barrier) run
// over a per-view shared-memory arena — preallocated per-rank slot buffers
// synchronized by a combining-tree barrier (barrier.go) — with deterministic,
// rank-ordered reductions so that floating-point results are reproducible
// run to run. In steady state neither path allocates: the arena slots, the
// send buffers and the receive buffers are all recycled.
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
	"esrp/internal/obs"
	"esrp/internal/replay"
)

// CostModel holds the LogGP-style machine parameters of the simulated
// cluster, all in seconds (per flop / per message / per byte).
type CostModel struct {
	FlopTime   float64 // seconds per floating-point operation
	Latency    float64 // end-to-end latency per message (α)
	BytePeriod float64 // seconds per payload byte (1/bandwidth, β)
	Overhead   float64 // sender-side CPU overhead per message (o)
}

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
	tag      int
	floats   []float64
	ints     []int
	sendTime float64 // sender's simulated clock at send
}

// bytes returns the modeled payload size.
func (m *message) bytes() int { return 8*len(m.floats) + 8*len(m.ints) }

// endpoint is the receive side of one node: per-sender FIFO channels,
// created lazily so that mostly-neighbour traffic patterns do not allocate
// N² buffers, plus a free list of payload buffers. The channel table is a
// fixed slice of atomic pointers — the steady-state lookup is one atomic
// load, no lock, no map hashing. Senders draw their payload copies from the
// destination's free list and the receiver returns them via Node.Release,
// so steady-state traffic recycles a fixed working set instead of
// allocating per message.
type endpoint struct {
	mu    sync.Mutex                // guards slow-path box creation
	boxes []atomic.Pointer[msgChan] // per-sender, nil until first use

	pmu  sync.Mutex
	pool [][]float64
}

// msgChan wraps a channel so it fits atomic.Pointer.
type msgChan struct{ ch chan message }

// boxCapacity bounds the in-flight messages per (sender, receiver) pair.
// Collectives run over the shared-memory arena (never these channels), and
// the arena barriers keep nodes within one collective of each other, so a
// pair accumulates at most one round of halo/extra/checkpoint/recovery
// traffic (≤ ~16 messages) before the receiver drains it. 64 leaves 4×
// headroom while keeping the per-pair channel footprint a few KB — the
// 4096-deep boxes of the star-collective era were 93% of a campaign cell's
// allocations.
const (
	boxCapacity = 64
	poolDepth   = 64 // free-list bound per endpoint
)

func (e *endpoint) box(src int) chan message {
	if b := e.boxes[src].Load(); b != nil {
		return b.ch
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if b := e.boxes[src].Load(); b != nil {
		return b.ch
	}
	b := &msgChan{ch: make(chan message, boxCapacity)}
	e.boxes[src].Store(b)
	return b.ch
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
func (e *endpoint) getBuf(n int) []float64 {
	limit := 2*n + 32
	e.pmu.Lock()
	best := -1
	for i := len(e.pool) - 1; i >= 0; i-- {
		if c := cap(e.pool[i]); c >= n && c <= limit && (best < 0 || c < cap(e.pool[best])) {
			best = i
			if c == n {
				break
			}
		}
	}
	if best >= 0 {
		buf := e.pool[best]
		e.pool[best] = e.pool[len(e.pool)-1]
		e.pool = e.pool[:len(e.pool)-1]
		e.pmu.Unlock()
		return buf[:n]
	}
	e.pmu.Unlock()
	return make([]float64, n)
}

// putBuf returns a buffer to the free list (dropped when full).
func (e *endpoint) putBuf(buf []float64) {
	if cap(buf) == 0 {
		return
	}
	e.pmu.Lock()
	if len(e.pool) < poolDepth {
		e.pool = append(e.pool, buf[:0])
	}
	e.pmu.Unlock()
}

// Comm is the simulated machine: the set of endpoints plus the cost model.
type Comm struct {
	n         int
	model     CostModel
	endpoints []*endpoint
	abort     chan struct{}
	abortOnce sync.Once
	abortErr  atomic.Value // error

	// states is every node's mutable state, one slice so a run costs one
	// allocation for all ranks. Each rank goroutine writes only its own
	// element; Run sums the traffic counters once every goroutine returned.
	states              []nodeState
	bytesSent, msgsSent int64       // Σ over states, filled by Run
	ran                 atomic.Bool // Run was called; a Comm is single-use

	rootView *view // identity view shared by all nodes (read-only)

	arenaMu sync.Mutex
	arenas  map[string]*arena // collective arenas keyed by member-rank set

	rec *obs.Recorder // nil = no instrumentation (the default)

	rep *replay.Recorder // nil = no schedule recording (the default)

	hostStats *hostobs.BarrierStats // nil = no host telemetry (the default)

	wallTime time.Duration
}

// New creates a simulated cluster of n nodes.
func New(n int, model CostModel) *Comm {
	if n <= 0 {
		panic(fmt.Sprintf("cluster: invalid node count %d", n))
	}
	c := &Comm{n: n, model: model, abort: make(chan struct{}), arenas: make(map[string]*arena)}
	c.endpoints = make([]*endpoint, n)
	for i := range c.endpoints {
		c.endpoints[i] = &endpoint{
			boxes: make([]atomic.Pointer[msgChan], n),
			pool:  make([][]float64, 0, poolDepth), // full capacity up front: putBuf never regrows it
		}
	}
	c.states = make([]nodeState, n)
	c.rootView = identityView(n)
	c.rootView.ar = c.arenaFor(c.rootView.ranks)
	return c
}

// Observe attaches an observability recorder: each node's goroutine then
// records collective spans (and whatever the layers above add) into its
// own per-rank buffer. Must be called before Run; a nil recorder (or not
// calling Observe at all) keeps the zero-overhead disabled path.
func (c *Comm) Observe(rec *obs.Recorder) { c.rec = rec }

// ObserveHost attaches host-side barrier telemetry: every arena barrier —
// the root view's and any sub-communicator's — records per-member wait
// time (split by spin/park regime), arrival-order skew, releases,
// and aborts into st. Members are indexed by view-local rank, so st must
// have capacity ≥ n. Must be called before Run, like Observe; a nil st
// (or not calling ObserveHost) keeps the zero-overhead disabled path.
func (c *Comm) ObserveHost(st *hostobs.BarrierStats) {
	if st != nil && st.Cap() < c.n {
		panic(fmt.Sprintf("cluster: ObserveHost stats capacity %d < %d nodes", st.Cap(), c.n))
	}
	c.hostStats = st
	// The root arena already exists (New creates it); retrofit it and any
	// other pre-Run arenas. Arenas created later pick st up in arenaFor.
	c.arenaMu.Lock()
	for _, a := range c.arenas {
		a.bar.stats = st
	}
	c.arenaMu.Unlock()
}

// RecordSchedule attaches a schedule recorder: each node's goroutine then
// appends its abstract event stream (compute, p2p, collectives) into its
// own per-rank buffer, and every collective arena registers its view
// membership, so the finished recording can be re-costed under any
// CostModel (see internal/replay). Must be called before Run; a nil
// recorder (or not calling RecordSchedule) keeps the zero-overhead
// disabled path.
func (c *Comm) RecordSchedule(rec *replay.Recorder) {
	if rec == nil {
		return
	}
	c.rep = rec
	rec.Init(c.n)
	// The root arena already exists (New creates it); retrofit it and any
	// other pre-Run arenas. Arenas created later register in arenaFor.
	c.arenaMu.Lock()
	for _, a := range c.arenas {
		a.repID = rec.RegisterView(a.ranks)
	}
	c.arenaMu.Unlock()
}

// N returns the number of nodes.
func (c *Comm) N() int { return c.n }

// Model returns the cost model.
func (c *Comm) Model() CostModel { return c.model }

// errAborted is the panic value used to unwind node goroutines after another
// node has failed with a real error.
type abortedError struct{ cause error }

func (e abortedError) Error() string { return "cluster: aborted: " + e.cause.Error() }

// errCollectiveAborted is the shared cause of collective-abort unwinds; a
// single value so the (already-failing) abort path allocates nothing.
var errCollectiveAborted = errors.New("collective aborted")

// abortedPanic is the value node goroutines unwind with when a collective is
// torn down by another node's failure.
func abortedPanic() abortedError { return abortedError{cause: errCollectiveAborted} }

func (c *Comm) fail(err error) {
	c.abortOnce.Do(func() {
		c.abortErr.Store(err)
		close(c.abort)
		// Wake every arena so nodes parked in a collective barrier unwind
		// instead of waiting for a member that will never arrive.
		c.arenaMu.Lock()
		for _, a := range c.arenas {
			a.abortAll()
		}
		c.arenaMu.Unlock()
	})
}

// arenaFor returns the collective arena shared by all members of the given
// global-rank set, creating it on first use. Callers on every member pass
// the identical ascending rank list (the view's), so the key is canonical.
func (c *Comm) arenaFor(ranks []int) *arena {
	key := make([]byte, 0, 4*len(ranks))
	for _, r := range ranks {
		key = strconv.AppendInt(key, int64(r), 36)
		key = append(key, ',')
	}
	c.arenaMu.Lock()
	defer c.arenaMu.Unlock()
	a, ok := c.arenas[string(key)]
	if !ok {
		a = newArena(len(ranks), c.hostStats)
		a.ranks = append([]int(nil), ranks...)
		if c.rep != nil {
			// Assigned inside the critical section, so every member that
			// looks the arena up afterwards sees the id.
			a.repID = c.rep.RegisterView(a.ranks)
		}
		select {
		case <-c.abort: // run already failed: new arenas are born aborted
			a.abortAll()
		default:
		}
		c.arenas[string(key)] = a
	}
	return a
}

// Run executes body on every node concurrently and waits for completion.
// A panic on any node aborts the whole run and is returned as an error.
// A Comm is single-use — its arenas, clocks and traffic counters are spent
// by the first run — so a second call returns an error and runs nothing.
func (c *Comm) Run(body func(nd *Node)) error {
	if !c.ran.CompareAndSwap(false, true) {
		return errors.New("cluster: Run called twice on one Comm")
	}
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(c.n)
	for g := 0; g < c.n; g++ {
		go func(g int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if ab, ok := r.(abortedError); ok {
						_ = ab // secondary victim of another node's failure
						return
					}
					c.fail(fmt.Errorf("cluster: node %d panicked: %v", g, r))
				}
			}()
			st := &c.states[g]
			st.trace, st.sched = c.rec.Rank(g), c.rep.Rank(g)
			body(&Node{comm: c, view: c.rootView, g: g, state: st})
		}(g)
	}
	wg.Wait()
	c.wallTime = time.Since(start)
	for i := range c.states {
		c.bytesSent += c.states[i].bytesSent
		c.msgsSent += c.states[i].msgsSent
	}
	if err, ok := c.abortErr.Load().(error); ok {
		return err
	}
	return nil
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

// view maps local ranks of a (sub-)communicator to global ranks. Views are
// immutable after construction and may be shared across goroutines.
type view struct {
	ranks []int       // global rank per local rank, ascending
	pos   map[int]int // global rank -> local rank
	ar    *arena      // the members' shared collective arena
}

func identityView(n int) *view {
	v := &view{ranks: make([]int, n), pos: make(map[int]int, n)}
	for i := 0; i < n; i++ {
		v.ranks[i] = i
		v.pos[i] = i
	}
	return v
}

// arena is the shared-memory collective workspace of one communicator view:
// per-member slot buffers and clock cells, synchronized by a combining-tree
// barrier (see barrier.go). A collective is ONE barrier phase: every member
// publishes its contribution and entry clock into the current bank, the
// barrier flips, and every member reads what it needs. For Allreduce the
// last arriver reduces the bank before it releases the phase — in ascending
// rank order, so results are bitwise deterministic, and in place into member
// 0's slot and clock cell — and the others only copy that result out. Slots
// are double-buffered in two banks that alternate per collective: a member
// racing ahead into collective k+1 writes the other bank, so it cannot
// clobber a slot a slower member is still reading in collective k — that's
// what makes the single barrier sufficient, for the folded slot 0 as for any
// other: a bank is rewritten only two collectives later. (A member can be at
// most one collective ahead: the barrier of k+1 cannot pass until everyone
// arrived there, and arriving at k+1 implies having finished reading bank k.)
type arena struct {
	n      int
	slots  [2][][]float64 // per-bank, per-member contribution scratch (owner-written)
	clocks [2][]float64   // per-bank, per-member simulated clock at entry

	ranks []int // global members, ascending (the canonical arena key)
	repID int32 // replay view id (meaningful only while recording)

	bar *barrier
}

func newArena(n int, st *hostobs.BarrierStats) *arena {
	a := &arena{n: n, bar: newBarrier(n, st)}
	for b := range a.slots {
		a.slots[b] = make([][]float64, n)
		a.clocks[b] = make([]float64, n)
	}
	return a
}

// slot returns member me's contribution buffer in bank b resized to n
// floats, growing its capacity on first use only — steady-state collectives
// reuse it.
func (a *arena) slot(b, me, n int) []float64 {
	s := a.slots[b]
	if cap(s[me]) < n {
		s[me] = make([]float64, n)
	}
	s[me] = s[me][:n]
	return s[me]
}

// await is one barrier phase for view-rank me. Publishing before await and
// reading after it is race-free (the barrier's atomic arrival chain orders
// the slot writes before the reads). An abort (another node failed) unparks
// every waiter with the abort panic.
func (a *arena) await(me int) {
	a.bar.await(me)
}

// reduce is the barrier phase of an Allreduce of `width` floats: the last
// arriver folds slots 1..n-1 of the bank into slot 0 and the largest entry
// clock into clocks[0], in ascending rank order, then releases the phase.
// On return slot 0 and clocks[0] hold the result for every member.
func (a *arena) reduce(me, bank, width int, op Op) {
	p := a.bar.enter(me)
	if !a.bar.arrive(me) {
		a.bar.wait(me, p)
		return
	}
	slots, clocks := a.slots[bank], a.clocks[bank]
	acc, tmax := slots[0][:width], clocks[0]
	for r := 1; r < a.n; r++ {
		op.apply(acc, slots[r][:width])
		tmax = max(tmax, clocks[r])
	}
	clocks[0] = tmax
	a.bar.release(me)
}

func (a *arena) abortAll() {
	a.bar.abort()
}

// nodeState is the per-goroutine mutable state shared between a node and all
// sub-communicator handles derived from it. The states of all nodes are
// neighbours in Comm.states; the tail padding spaces them a cache line
// apart, so a rank advancing its clock never invalidates its neighbour's.
type nodeState struct {
	clock     float64
	flops     float64
	bytesSent int64
	msgsSent  int64
	trace     *obs.Rank    // nil unless Comm.Observe attached a recorder
	sched     *replay.Rank // nil unless Comm.RecordSchedule attached one
	_         [16]byte
}

// Node is one simulated cluster node's handle, bound to a communicator view.
// All methods must be called only from the goroutine running this node.
type Node struct {
	comm  *Comm
	view  *view
	g     int // global rank
	state *nodeState

	collSeq uint64 // collectives completed on this view (selects the arena bank)
}

// Rank returns this node's rank within the current view.
func (nd *Node) Rank() int { return nd.view.pos[nd.g] }

// Size returns the number of nodes in the current view.
func (nd *Node) Size() int { return len(nd.view.ranks) }

// GlobalRank returns the node's rank in the top-level communicator.
func (nd *Node) GlobalRank() int { return nd.g }

// GlobalOf returns the top-level rank of the given view rank — the inverse
// of the mapping Sub establishes. Callers deriving a sub-communicator from
// view-relative rank lists translate through this before calling Sub.
func (nd *Node) GlobalOf(viewRank int) int { return nd.view.ranks[viewRank] }

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

// SyncClock raises the simulated clock to at least t.
func (nd *Node) SyncClock(t float64) {
	if t > nd.state.clock {
		nd.state.clock = t
	}
	nd.state.sched.ClockSync(t)
}

// Compute advances the clock by flops·FlopTime and accounts the flops.
func (nd *Node) Compute(flops float64) {
	nd.state.flops += flops
	nd.state.clock += flops * nd.comm.model.FlopTime
	nd.state.sched.Compute(flops)
}

// Flops returns the total flops accounted on this node.
func (nd *Node) Flops() float64 { return nd.state.flops }

// BytesSent returns the payload bytes this node has sent.
func (nd *Node) BytesSent() int64 { return nd.state.bytesSent }

// MsgsSent returns the number of point-to-point messages this node has
// sent (collective traffic accounted as the retired star's messages).
func (nd *Node) MsgsSent() int64 { return nd.state.msgsSent }

// Trace returns the node's observability buffer — nil when no recorder is
// attached, which every obs.Rank method tolerates, so callers instrument
// unconditionally. Shared across Sub handles (it lives on nodeState).
func (nd *Node) Trace() *obs.Rank { return nd.state.trace }

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
	v := &view{ranks: append([]int(nil), globalRanks...), pos: make(map[int]int, len(globalRanks))}
	prev := -1
	for i, r := range v.ranks {
		if r <= prev || r < 0 || r >= nd.comm.n {
			panic(fmt.Sprintf("cluster: Sub ranks must be ascending and in range, got %v", globalRanks))
		}
		prev = r
		v.pos[r] = i
	}
	if _, ok := v.pos[nd.g]; !ok {
		return nil
	}
	v.ar = nd.comm.arenaFor(v.ranks)
	return &Node{comm: nd.comm, view: v, g: nd.g, state: nd.state}
}

// send delivers a message to the local-rank dst of the current view. The
// payload is copied — callers may reuse their buffers — but the copy lands
// in a buffer drawn from the destination's free list, so steady-state
// traffic does not allocate. The receiver may hand the buffer back with
// Release once it is done with the payload.
func (nd *Node) send(dst, tag int, floats []float64, ints []int, clocked bool) {
	gdst := nd.view.ranks[dst]
	ep := nd.comm.endpoints[gdst]
	m := message{tag: tag, sendTime: nd.state.clock}
	if floats != nil {
		buf := ep.getBuf(len(floats))
		copy(buf, floats)
		m.floats = buf
	}
	if ints != nil {
		m.ints = append(make([]int, 0, len(ints)), ints...)
	}
	if clocked {
		nd.state.clock += nd.comm.model.Overhead
		m.sendTime = nd.state.clock
	}
	nd.account(1, int64(m.bytes()))
	nd.state.sched.Send(gdst, int64(m.bytes()))
	box := ep.box(nd.g)
	select {
	case box <- m: // fast path: box has room (it almost always does)
	default:
		select {
		case box <- m:
		case <-nd.comm.abort:
			panic(abortedError{cause: fmt.Errorf("send to %d aborted", gdst)})
		}
	}
}

// recv receives the next message from local-rank src of the current view.
// The message's tag must equal tag; a mismatch indicates a protocol bug and
// panics. If clocked, the receiver's clock advances to the modeled delivery
// time.
func (nd *Node) recv(src, tag int, clocked bool) message {
	gsrc := nd.view.ranks[src]
	box := nd.comm.endpoints[nd.g].box(gsrc)
	var m message
	select {
	case m = <-box: // fast path: message already delivered
	default:
		select {
		case m = <-box:
		case <-nd.comm.abort:
			panic(abortedError{cause: fmt.Errorf("recv from %d aborted", gsrc)})
		}
	}
	if m.tag != tag {
		panic(fmt.Sprintf("cluster: node %d expected tag %d from %d, got %d", nd.g, tag, gsrc, m.tag))
	}
	if clocked {
		arrival := m.sendTime + nd.comm.model.Latency + float64(m.bytes())*nd.comm.model.BytePeriod
		if arrival > nd.state.clock {
			nd.state.clock = arrival
		}
	}
	nd.state.sched.Recv(gsrc)
	return m
}

// Send transmits floats to view-rank dst with the given tag.
func (nd *Node) Send(dst, tag int, floats []float64) {
	nd.send(dst, tag, floats, nil, true)
}

// SendFI transmits a float payload plus an integer payload.
func (nd *Node) SendFI(dst, tag int, floats []float64, ints []int) {
	nd.send(dst, tag, floats, ints, true)
}

// Recv receives a float payload from view-rank src with the given tag. The
// returned slice is owned by the caller; pass it to Release when done to
// recycle it, or retain it indefinitely.
func (nd *Node) Recv(src, tag int) []float64 {
	return nd.recv(src, tag, true).floats
}

// Release returns a payload slice previously obtained from Recv / RecvFI /
// Request.Wait to this node's free list, so a later sender to this node can
// reuse it. Releasing a buffer the caller still reads from — or one not
// obtained from a receive — corrupts future messages; when in doubt, don't:
// unreleased buffers are simply collected by the GC.
func (nd *Node) Release(buf []float64) {
	nd.comm.endpoints[nd.g].putBuf(buf)
}

// Request is the handle of a nonblocking receive posted with IRecv. The zero
// value is invalid; requests are single-use and must not be shared across
// goroutines (like every Node method, they belong to the node's goroutine).
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
	nd.send(dst, tag, floats, nil, true)
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
		r.floats = r.nd.recv(r.src, r.tag, true).floats
		r.done = true
	}
	return r.floats
}

// RecvFI receives a float plus integer payload.
func (nd *Node) RecvFI(src, tag int) ([]float64, []int) {
	m := nd.recv(src, tag, true)
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
// over n participants: ⌈log₂ n⌉ rounds of latency plus serialization.
func (nd *Node) collectiveCost(bytes int) float64 {
	n := nd.Size()
	rounds := math.Ceil(math.Log2(float64(max(n, 2))))
	return rounds * (nd.comm.model.Latency + nd.comm.model.Overhead + float64(bytes)*nd.comm.model.BytePeriod)
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
	me := nd.Rank()
	a := nd.view.ar
	bank := int(nd.collSeq & 1)
	nd.collSeq++

	slot := a.slot(bank, me, len(x))
	copy(slot, x)
	t0 := nd.state.clock
	a.clocks[bank][me] = nd.state.clock
	a.reduce(me, bank, len(x), op) // all contributions published and folded

	copy(x, a.slots[bank][0][:len(x)])
	nd.state.clock = a.clocks[bank][0] + nd.collectiveCost(8*len(x))
	nd.state.trace.Span(obs.KindAllreduce, t0, nd.state.clock)

	payloadBytes := int64(8 * (len(x) + 1)) // star payload: body + clock
	if me == 0 {
		nd.account(int64(n-1), int64(n-1)*payloadBytes)
	} else {
		nd.account(1, payloadBytes)
	}
	if s := nd.state.sched; s != nil {
		msgs, bytes := int64(1), payloadBytes
		if me == 0 {
			msgs, bytes = int64(n-1), int64(n-1)*payloadBytes
		}
		s.Collective(replay.KindAllreduce, nd.view.ar.repID, int64(8*len(x)), msgs, bytes, false)
	}
}

// AllreduceScalar reduces a single value.
func (nd *Node) AllreduceScalar(op Op, v float64) float64 {
	buf := [1]float64{v}
	nd.Allreduce(op, buf[:])
	return buf[0]
}

// Barrier synchronizes all view members (an empty allreduce).
func (nd *Node) Barrier() {
	nd.Allreduce(OpMax, nil)
}

// Bcast broadcasts data from view-rank root to all members, in place.
func (nd *Node) Bcast(root int, data []float64) {
	n := nd.Size()
	if n == 1 {
		return
	}
	me := nd.Rank()
	a := nd.view.ar
	bank := int(nd.collSeq & 1)
	nd.collSeq++
	t0 := nd.state.clock
	if me == root {
		slot := a.slot(bank, me, len(data))
		copy(slot, data)
		a.clocks[bank][me] = nd.state.clock
	}
	a.await(me)
	cost := nd.collectiveCost(8 * len(data))
	if me == root {
		nd.state.clock += cost
		nd.account(int64(n-1), int64(n-1)*int64(8*(len(data)+1)))
	} else {
		copy(data, a.slots[bank][root][:len(data)])
		nd.state.clock = math.Max(a.clocks[bank][root], nd.state.clock) + cost
	}
	nd.state.trace.Span(obs.KindBcast, t0, nd.state.clock)
	if s := nd.state.sched; s != nil {
		var msgs, bytes int64
		if me == root {
			msgs, bytes = int64(n-1), int64(n-1)*int64(8*(len(data)+1))
		}
		s.Collective(replay.KindBcast, a.repID, int64(8*len(data)), msgs, bytes, me == root)
	}
}

// Gather collects each member's data slice at view-rank root. On root it
// returns one slice per rank (rank order); on other members it returns nil.
func (nd *Node) Gather(root int, data []float64) [][]float64 {
	n := nd.Size()
	me := nd.Rank()
	a := nd.view.ar
	bank := int(nd.collSeq & 1)
	nd.collSeq++

	slot := a.slot(bank, me, len(data))
	copy(slot, data)
	t0 := nd.state.clock
	a.clocks[bank][me] = nd.state.clock
	if s := nd.state.sched; s != nil {
		// Recorded at entry (before the non-root overhead advance): the
		// replay publishes the entry clock, then applies the same
		// per-role arithmetic. Bytes is this member's payload — the root
		// replay sums the non-root payloads for its serialization term.
		var msgs, bytes int64
		if me != root {
			msgs, bytes = 1, int64(8*(len(data)+1))
		}
		s.Collective(replay.KindGather, a.repID, int64(8*len(data)), msgs, bytes, me == root)
	}
	if me != root {
		// The sender's clock advances only by its own send overhead; gather
		// is not synchronizing for non-roots on the simulated clock (the
		// arena barrier is a host-side artifact with no modeled cost).
		nd.account(1, int64(8*(len(data)+1)))
		nd.state.clock += nd.comm.model.Overhead
	}
	a.await(me)
	var out [][]float64
	if me == root {
		slots, clocks := a.slots[bank], a.clocks[bank]
		out = make([][]float64, n)
		tmax := nd.state.clock
		totalBytes := 0
		for r := 0; r < n; r++ {
			out[r] = append([]float64(nil), slots[r]...)
			if r == root {
				continue
			}
			if clocks[r] > tmax {
				tmax = clocks[r]
			}
			totalBytes += 8 * len(slots[r])
		}
		nd.state.clock = tmax + nd.comm.model.Latency*math.Ceil(math.Log2(float64(max(n, 2)))) +
			float64(totalBytes)*nd.comm.model.BytePeriod
	}
	nd.state.trace.Span(obs.KindGather, t0, nd.state.clock)
	return out
}
