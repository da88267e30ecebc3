package cluster

import (
	"errors"
	"fmt"
	"iter"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// running counts the Runs in flight in this process. A run gets the host's
// Ps divided by it, and at most one worker per node: concurrent solves (a
// campaign's cells) share the Ps instead of each claiming all of them.
// Measured on 2 Ps (DESIGN.md § Parallel execution model): a lone solve is
// up to twice as fast on two workers as on one, while two concurrent cells
// with two workers each lose a quarter of their throughput to each other's
// polling.
var running atomic.Int32

// waitKind says what a blocked rank waits for.
type waitKind uint8

const (
	waitNone  waitKind = iota // runnable (or running, or finished)
	waitRecv                  // a delivery to the rank's inbox (it wants one from src)
	waitPhase                 // arena ar leaving phase
)

// wait is the record a rank leaves when it blocks: plain fields its worker
// tests on every sweep, never a closure, so blocking allocates nothing.
type wait struct {
	kind     waitKind
	src, tag int    // waitRecv: global sender and tag, for the deadlock report
	seen     uint32 // waitRecv: inbox.pushed before the inbox was searched in vain
	ar       *arena // waitPhase
	phase    uint32 // waitPhase
}

// coroutine is the scheduling half of a nodeState: the rank's body as an
// iter.Pull coroutine and what it currently waits for.
type coroutine struct {
	wait  wait
	next  func() (struct{}, bool) // resumes the body; false once it has returned
	stop  func()                  // makes a blocked body unwind with errAborted, and waits for it
	yield func(struct{}) bool     // the body's way back to its worker
	done  bool                    // the body has returned
}

// block records w and yields to the worker, returning when the worker found
// w satisfied. It is the one way a rank blocks. When the run has failed
// instead, the rank unwinds with a panic that its coroutine recovers.
func (st *nodeState) block(w wait) {
	st.wait = w
	if !st.yield(struct{}{}) {
		panic(errAborted)
	}
}

// runnable reports whether the rank's recorded wait is satisfied.
func (st *nodeState) runnable() bool {
	switch st.wait.kind {
	case waitRecv:
		return st.inbox.pushed.Load() != st.wait.seen
	case waitPhase:
		return st.wait.ar.phase.Load() != st.wait.phase
	}
	return true
}

// worker runs the ranks [lo, hi) of one Comm: Run starts W of them, worker w
// owns the contiguous block [w·n/W, (w+1)·n/W) and resumes, round robin, every
// rank of it whose recorded wait is satisfied. A rank blocked on another
// worker's rank is found runnable by its own worker's next sweep, so at most
// W threads touch an inbox mutex, an arrival counter or a phase word at once,
// whatever the node count.
type worker struct {
	c      *Comm
	body   func(*Node)
	lo, hi int
	live   int  // owned ranks whose body has not returned
	cur    int  // the rank being resumed; a starting coroutine reads its identity here
	idling bool // counted idle in the census; sweep wakes it before it resumes a rank
}

// Run executes body on every node and waits for completion. A panic on any
// node aborts the whole run and is returned as an error, as is a deadlock —
// every unfinished node blocked on something no other node will do. A Comm
// is single-use — its arenas, clocks and traffic counters are spent by the
// first run — so a second call returns an error and runs nothing.
func (c *Comm) Run(body func(nd *Node)) error {
	if !c.ran.CompareAndSwap(false, true) {
		return errors.New("cluster: Run called twice on one Comm")
	}
	start := time.Now()
	nw := max(1, min(c.n, runtime.GOMAXPROCS(0)/int(running.Add(1))))
	defer running.Add(-1)
	c.quiet.state.Store(uint64(nw)) // nw workers alive, none idle, epoch 0
	var wg sync.WaitGroup
	for i := nw - 1; i >= 0; i-- {
		w := &worker{c: c, body: body, lo: i * c.n / nw, hi: (i + 1) * c.n / nw}
		if i == 0 {
			w.run() // the caller is worker 0
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run()
		}()
	}
	wg.Wait()
	c.wallTime = time.Since(start)
	for i := range c.states {
		c.bytesSent += c.states[i].bytesSent
		c.msgsSent += c.states[i].msgsSent
	}
	if c.failErr == errDeadlock {
		return c.deadlockError()
	}
	return c.failErr
}

// run drives the worker's ranks to completion. However it ends — all bodies
// returned, the run aborted, a body called runtime.Goexit — it leaves no
// coroutine behind: an unfinished one would pin its goroutine for the life
// of the process.
func (w *worker) run() {
	c := w.c
	main := w.rankMain // one method value for all of the worker's coroutines
	for g := w.lo; g < w.hi; g++ {
		st := &c.states[g]
		st.next, st.stop = iter.Pull(main)
	}
	w.live = w.hi - w.lo
	defer func() {
		for g := w.lo; g < w.hi; g++ {
			if st := &c.states[g]; !st.done {
				st.stop()
			}
		}
	}()
	for w.live > 0 && !c.aborted.Load() {
		if !w.sweep() {
			w.idle()
		}
	}
	if w.live == 0 {
		c.quiet.retire()
	}
}

// rankMain is the coroutine body of rank w.cur.
func (w *worker) rankMain(yield func(struct{}) bool) {
	c, g := w.c, w.cur
	st := &c.states[g]
	st.yield = yield
	defer func() {
		// errAborted marks a secondary victim of a failure elsewhere.
		if r := recover(); r != nil && r != errAborted {
			c.fail(fmt.Errorf("cluster: node %d panicked: %v", g, r))
		}
	}()
	st.sched = c.rep.Rank(g)
	st.root = Node{comm: c, ar: c.root, g: g, rank: g, state: st}
	w.body(&st.root)
}

// sweep resumes every runnable rank of the worker once, in rank order, and
// reports whether there was one.
func (w *worker) sweep() (ran bool) {
	c := w.c
	for g := w.lo; g < w.hi; g++ {
		st := &c.states[g]
		if st.done || !st.runnable() {
			continue
		}
		if w.idling {
			w.idling = false
			c.quiet.wake()
		}
		st.wait.kind = waitNone
		w.cur = g
		if _, more := st.next(); !more {
			st.done = true
			w.live--
		}
		ran = true
		if c.aborted.Load() {
			break
		}
	}
	return ran
}

// The idle policy. A worker none of whose ranks can run waits for a worker
// that is usually mid-round on another P, so the answer is microseconds
// away: it re-tests its ranks idlePolls times between calls of
// runtime.Gosched, which hands the P to whatever else is runnable (the
// workers of concurrent runs). Polling only pays while the awaited worker
// has a core, though. On a host with fewer cores than Ps (a CPU quota, a CI
// runner at GOMAXPROCS=4) it may be the poller that keeps it off one, for a
// whole OS time slice per collective — so a worker idle for longer than
// idleSpin naps between polls and gives its thread up.
//
// A nap is far longer than it says: an idle P serves time.Sleep through the
// netpoller, whose timeout is whole milliseconds, so the napper is about a
// millisecond late for whatever happened meanwhile, and the worker it was
// waiting for now waits for it. idleSpin has to exceed that, or this wait
// ends in a nap too and the two keep putting each other to sleep — at 200 µs,
// which the imbalance between the halves of a 128-rank round reaches by
// itself, runs differed by a fifth (DESIGN.md § Parallel execution model).
const (
	idlePolls = 16
	idleSpin  = 2 * time.Millisecond
	idleNap   = 20 * time.Microsecond // what an idle P turns into about 1 ms
)

// idle is called when every unfinished rank of the worker is blocked, hence
// on ranks of other workers: it polls until one of its own could run again
// or the run is aborted — by another worker's failure, or by the census
// finding that every worker is in here for good, which is a deadlock.
func (w *worker) idle() {
	c := w.c
	c.quiet.idle()
	w.idling = true
	voted := int64(-1) // the epoch this worker has voted in
	var since time.Time
	for polls := 1; !c.aborted.Load(); polls++ {
		if w.sweep() {
			return
		}
		if epoch, all := c.quiet.allIdle(); all && voted != int64(epoch) {
			// Every event that could make a rank runnable precedes the last
			// worker's going idle, which precedes this read — so the sweep
			// below is final for this epoch.
			if w.sweep() {
				return
			}
			if voted = int64(epoch); c.quiet.vote(epoch) {
				c.fail(errDeadlock)
			}
		}
		if polls%idlePolls != 0 {
			continue
		}
		runtime.Gosched()
		if since.IsZero() {
			since = time.Now()
		} else if time.Since(since) > idleSpin {
			time.Sleep(idleNap)
		}
	}
}

// census is how the workers agree that nothing can run any more. Only a
// running rank makes another runnable (a delivery, a phase move), so once
// every worker with unfinished ranks is idle no further event will come —
// but a worker may have gone idle just before an event for one of its ranks
// and not have looked since. So each idle worker, after it has seen all of
// them idle, tests its ranks once more and votes; a worker that finds one
// runnable instead wakes, which opens a new epoch and voids the votes. When
// every worker has voted in one epoch the run is deadlocked. With a single
// worker this degenerates to "a sweep found nothing".
type census struct {
	// state is epoch<<32 | idle<<16 | alive: workers with unfinished ranks,
	// how many of them are idle, and the number of wakes so far.
	state atomic.Uint64
	// votes is epoch<<32 | count for the newest epoch anyone voted in.
	votes atomic.Uint64
}

// idle and wake bracket the time a worker has nothing to run; retire is the
// end of a worker all of whose ranks have finished.
func (q *census) idle()   { q.state.Add(1 << 16) }
func (q *census) wake()   { q.state.Add(1<<32 - 1<<16) }
func (q *census) retire() { q.state.Add(^uint64(0)) }

// allIdle reports the current epoch and whether every worker with unfinished
// ranks is idle in it.
func (q *census) allIdle() (epoch uint32, all bool) {
	s := q.state.Load()
	return uint32(s >> 32), s>>16&0xffff == s&0xffff
}

// vote records that the caller, idle, found nothing runnable after it saw
// allIdle in epoch, and reports whether that completes the epoch's vote. A
// vote for an epoch older than the newest voted in is dropped.
func (q *census) vote(epoch uint32) bool {
	for {
		v := q.votes.Load()
		count := uint64(1)
		switch d := int32(uint32(v>>32) - epoch); {
		case d > 0:
			return false
		case d == 0:
			count = v&0xffffffff + 1
		}
		if q.votes.CompareAndSwap(v, uint64(epoch)<<32|count) {
			s := q.state.Load()
			return uint32(s>>32) == epoch && count == s&0xffff
		}
	}
}

// deadlockError lists what every node of a deadlocked run waits for. Called
// after the workers returned; unwinding a rank leaves its wait record as it
// was when the rank blocked.
func (c *Comm) deadlockError() error {
	var b strings.Builder
	b.WriteString(errDeadlock.Error())
	sep := ": "
	for g := range c.states {
		w := &c.states[g].wait
		b.WriteString(sep)
		sep = "; "
		switch w.kind {
		case waitRecv:
			fmt.Fprintf(&b, "rank %d waits recv(src %d, tag %d)", g, w.src, w.tag)
		case waitPhase:
			fmt.Fprintf(&b, "rank %d waits collective %d of ", g, w.phase)
			if w.ar == c.root {
				b.WriteString("the root view")
			} else {
				fmt.Fprintf(&b, "view %v", w.ar.ranks)
			}
		default:
			fmt.Fprintf(&b, "rank %d finished", g)
		}
	}
	return errors.New(b.String())
}
