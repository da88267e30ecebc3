package core

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"esrp/internal/matgen"
	"esrp/internal/obs"
	"esrp/internal/replay"
	"esrp/internal/vec"
)

var allTimelines = flag.Bool("all-timelines", false, "TestFailureTimelines: run every pair of events, not every pairStride-th")

// A timeline variant is a strategy with its spare pool: −1 unlimited, 0
// none (NoSpareNodes), 1 one spare.
type variant struct {
	name     string
	strategy Strategy
	pool     int
}

var (
	vNone        = variant{"none", StrategyNone, -1}
	vIMCR        = variant{"imcr", StrategyIMCR, -1}
	vESR         = variant{"esr", StrategyESR, -1}
	vESR1        = variant{"esr-1spare", StrategyESR, 1}
	vESRP        = variant{"esrp", StrategyESRP, -1}
	vESRP1       = variant{"esrp-1spare", StrategyESRP, 1}
	vESRNoSpare  = variant{"esr-nospare", StrategyESR, 0}
	vESRPNoSpare = variant{"esrp-nospare", StrategyESRP, 0}

	timelineVariants = []variant{vNone, vIMCR, vESR, vESR1, vESRP, vESRP1, vESRNoSpare, vESRPNoSpare}
)

const (
	timelineNodes = 4
	timelineT     = 3  // ESRP's and IMCR's interval: stages complete at 4, 7, 10 and 13
	timelineLast  = 12 // events strike at iterations 0…12 of the reference's 23
	pairStride    = 23 // tier-1 runs every 23rd pair: 274 of StrategyNone, 54 or 55 of each other
	fullStride    = 7  // every 7th draw also checks the trace tiling and clock homogeneity
)

// draw is one failure timeline. t is ESRP's and IMCR's interval, 0 for
// timelineT; modes, where set, pins the event log's modes that expectedLog
// leaves open.
type draw struct {
	v      variant
	phi, t int
	events []FailureSpec
	modes  []string
}

func ev(j int, ranks ...int) FailureSpec { return FailureSpec{Iteration: j, Ranks: ranks} }

func (d draw) String() string { return fmt.Sprintf("%s/φ=%d %v", d.v.name, d.phi, d.events) }

func (d draw) config(base Config) Config {
	cfg := base
	cfg.Strategy, cfg.Phi, cfg.Failures = d.v.strategy, d.phi, d.events
	cfg.Spares, cfg.NoSpareNodes = max(d.v.pool, 0), d.v.pool == 0
	if d.v.strategy == StrategyESRP || d.v.strategy == StrategyIMCR {
		cfg.T = d.period()
	}
	return cfg
}

func (d draw) period() int {
	if d.t == 0 {
		return timelineT
	}
	return d.t
}

// refusal returns the part of the error Solve must refuse the draw on n
// nodes with — one of the three documented kinds a timeline of in-range
// ranks can hit — or "" for a draw it must accept.
func (d draw) refusal(n int) string {
	for _, f := range d.events {
		switch psi := len(f.Ranks); {
		case f.Ranks[psi-1]-f.Ranks[0] != psi-1:
			return "contiguous ascending block"
		case psi >= n:
			return "all nodes failing is unrecoverable"
		case d.v.strategy != StrategyNone && psi > d.phi:
			return "exceed redundancy"
		}
	}
	return ""
}

// resumeAt is the iteration a recovery at j resumes from: ESR reconstructs
// j itself once a full iteration has run; ESRP resumes at the second
// iteration of the last completed storage stage, IMCR after its last
// checkpoint, both kT+1 ≤ j. Before that, and under StrategyNone, the
// solver restarts at j from the surviving iterand: −1.
func (d draw) resumeAt(j int) int {
	switch {
	case d.v.strategy == StrategyESR && j >= 1:
		return j
	case (d.v.strategy == StrategyESRP || d.v.strategy == StrategyIMCR) && j > d.period():
		return (j-1)/d.period()*d.period() + 1
	}
	return -1
}

// expectedLog is the event log an accepted draw on n nodes must produce, as
// far as the protocol fixes it: an event past the reference's last
// iteration never fires; one whose block a shrink removed is skipped; a
// pool with fewer spares than failed ranks shrinks the cluster, whole; any
// other event is a recovery resuming where resumeAt says — a spare or a
// shrink one by the pool — or a restart where it says −1, shrink or not. A
// later ESR/ESRP event's mode is left "": the coverage vote passes it as a
// spare or shrink recovery or degrades it to a restart from the same
// iteration.
func (d draw) expectedLog(n, refIters int) []RecoveryEvent {
	nodes, spares := n, d.v.pool
	var log []RecoveryEvent
	for k, f := range d.events {
		if f.Iteration >= refIters {
			break
		}
		psi, at := len(f.Ranks), d.resumeAt(f.Iteration)
		e := RecoveryEvent{Iteration: f.Iteration, Ranks: f.Ranks, Mode: RecoverySpare, RecoveredAt: at}
		switch {
		case f.Ranks[psi-1] >= nodes || psi >= nodes:
			e.Mode = RecoverySkipped
		case at < 0:
			e.Mode = RecoveryRestart
		case k > 0 && d.v.strategy != StrategyIMCR:
			e.Mode = ""
		}
		if e.Mode != RecoverySkipped && (d.v.strategy == StrategyESR || d.v.strategy == StrategyESRP) {
			if spares >= 0 && spares < psi {
				nodes -= psi
				if e.Mode == RecoverySpare {
					e.Mode = RecoveryShrink
				}
			} else if spares > 0 {
				spares -= psi
			}
		}
		if e.Mode == RecoverySkipped || at < 0 {
			e.RecoveredAt = f.Iteration
		}
		e.SparesLeft, e.ActiveNodes, e.WastedIters = spares, nodes, f.Iteration-e.RecoveredAt
		if d.modes != nil {
			e.Mode = d.modes[k]
		}
		log = append(log, e)
	}
	return log
}

// timelineRefs holds a system and the solves every draw on it is compared
// with: the failure-free StrategyNone reference and, per variant, φ and T,
// the failure-free twin.
type timelineRefs struct {
	base Config
	none *Result
	ff   map[string]*Result
}

func newTimelineRefs(t *testing.T, base Config) *timelineRefs {
	t.Helper()
	return &timelineRefs{base: base, none: solveOK(t, base), ff: map[string]*Result{}}
}

// timelineBase is the enumeration's system: Poisson2D 8×8 on 4 nodes, which
// the reference solves in 23 iterations.
func timelineBase() Config {
	a := matgen.Poisson2D(8, 8)
	b, _ := matgen.RHSForSolution(a, 1)
	return Config{A: a, B: b, Nodes: timelineNodes, Rtol: 1e-8, DetectionTime: 2e-5, CostModel: fastModel()}
}

// check solves d and returns the first way the solve breaks the recovery
// contract, nil for none. With full set it also checks that each rank's
// spans tile its timeline and that the clock scales exactly (2ᵏ on the
// four machine parameters and the detection time scales SimTime and
// RecoveryTime by 2ᵏ and leaves the rest of the record as it was).
func (refs *timelineRefs) check(d draw, full bool, k int) error {
	cfg := d.config(refs.base)
	cfg.Record = replay.NewRecorder()
	if full {
		cfg.Observe = &obs.Options{Trace: true, Series: true}
	}
	res, err := Solve(cfg)
	if want := d.refusal(cfg.Nodes); want != "" || err != nil {
		if err == nil || want == "" || !strings.Contains(err.Error(), want) {
			return fmt.Errorf("err = %v, want one saying %q", err, want)
		}
		return nil
	}
	ref := refs.none
	if !res.Converged {
		return fmt.Errorf("did not converge in %d iterations (relres %g)", res.Iterations, res.RelResidual)
	}
	if dx := vec.MaxAbsDiff(res.X, ref.X); dx > 1e-6 {
		return fmt.Errorf("|x − x_None| = %g", dx)
	}
	// The true residual, not the recurrence's, within 5× the tolerance after
	// any number of events (every draw reaches ≤ 1e-8).
	if rel := trueRelResidual(cfg, res.X); rel > 5e-8 {
		return fmt.Errorf("true relative residual %g > 5e-8", rel)
	}
	if math.Abs(res.Drift) > 1 {
		return fmt.Errorf("residual drift %g", res.Drift)
	}

	// The event log, its summary and the step identity: every step
	// advances the trajectory, is rolled back, or is the step an event
	// interrupted.
	want := d.expectedLog(cfg.Nodes, ref.Iterations)
	if len(res.Events) != len(want) {
		return fmt.Errorf("events %+v, want %+v", res.Events, want)
	}
	wasted, fired, exact, active, lastAt := 0, 0, true, cfg.Nodes, 0
	for i, e := range res.Events {
		w := want[i]
		if rebuilt := RecoverySpare; w.Mode == "" {
			if w.ActiveNodes < active { // the cluster shrank
				rebuilt = RecoveryShrink
			}
			if e.Mode == rebuilt || e.Mode == RecoveryRestart {
				w.Mode = e.Mode
			}
		}
		if !reflect.DeepEqual(e, w) {
			return fmt.Errorf("event %d: %+v, want %+v", i, e, w)
		}
		if active = e.ActiveNodes; e.Mode != RecoverySkipped {
			wasted, fired, lastAt = wasted+e.WastedIters, fired+1, e.RecoveredAt
			// A spare or a shrink recovery rebuilt the state; a restart did not.
			exact = exact && (e.Mode == RecoverySpare || e.Mode == RecoveryShrink)
		}
	}
	if res.WastedIters != wasted || res.TotalSteps != res.Iterations+wasted+fired {
		return fmt.Errorf("steps %d, iterations %d, wasted %d: events waste %d in %d interrupted steps",
			res.TotalSteps, res.Iterations, res.WastedIters, wasted, fired)
	}
	if res.Recovered != (fired > 0) || fired > 0 && res.RecoveredAt != lastAt || res.ActiveNodes != active {
		return fmt.Errorf("Recovered %v, RecoveredAt %d, %d active nodes; event log %+v",
			res.Recovered, res.RecoveredAt, res.ActiveNodes, res.Events)
	}
	// Each fired event charges the detection time and its protocol's own.
	if fired > 0 && (res.RecoveryTime <= 0 || res.RecoveryTime < float64(fired)*cfg.DetectionTime) || fired == 0 && res.RecoveryTime != 0 {
		return fmt.Errorf("RecoveryTime %g s after %d fired events, detection %g s each", res.RecoveryTime, fired, cfg.DetectionTime)
	}
	switch {
	case fired == 0:
		// Nothing fired: the reference trajectory, bit for bit.
		if res.Iterations != ref.Iterations || vec.MaxAbsDiff(res.X, ref.X) != 0 {
			return fmt.Errorf("no event fired, yet %d iterations against the reference's %d, x off by %g",
				res.Iterations, ref.Iterations, vec.MaxAbsDiff(res.X, ref.X))
		}
	case exact:
		// Exact recovery rejoins the reference trajectory.
		if res.Iterations < ref.Iterations-1 || res.Iterations > ref.Iterations+3 {
			return fmt.Errorf("%d iterations, reference %d", res.Iterations, ref.Iterations)
		}
	}

	// ESR's and ESRP's reconstruction scratch and a shrink's adopted rows
	// raise the per-node high-water mark above the failure-free twin's.
	key := fmt.Sprintf("%s/%d/%d", d.v.name, d.phi, d.period())
	if refs.ff[key] == nil {
		if refs.ff[key], err = Solve(draw{v: d.v, phi: d.phi, t: d.t}.config(refs.base)); err != nil {
			return fmt.Errorf("failure-free twin: %v", err)
		}
	}
	if ff := refs.ff[key]; fired > 0 && exact && d.v.strategy != StrategyIMCR && res.MaxNodeBytes <= ff.MaxNodeBytes {
		return fmt.Errorf("MaxNodeBytes %d not above the failure-free %d", res.MaxNodeBytes, ff.MaxNodeBytes)
	}

	// replay == live, bit for bit.
	rep, err := res.Schedule.Recost(*cfg.CostModel)
	if err != nil {
		return fmt.Errorf("re-cost: %v", err)
	}
	if rep.SimTime != res.SimTime || rep.RecoveryTime != res.RecoveryTime || rep.BytesSent != res.BytesSent || rep.MsgsSent != res.MsgsSent {
		return fmt.Errorf("replay %g s, recovery %g s, %d B, %d msgs; live %g s, %g s, %d B, %d msgs",
			rep.SimTime, rep.RecoveryTime, rep.BytesSent, rep.MsgsSent, res.SimTime, res.RecoveryTime, res.BytesSent, res.MsgsSent)
	}
	if !full {
		return nil
	}

	if err := res.Trace.CheckTiling(); err != nil {
		return fmt.Errorf("the spans do not tile the timeline: %v", err)
	}
	scaled := cfg
	scaled.Record = nil
	scaleClock(&scaled, k)
	sres, err := Solve(scaled)
	if err != nil {
		return fmt.Errorf("clock ×2^%d: %v", k, err)
	}
	wantRec := recordOf(res)
	wantRec.SimTimeBits = fmt.Sprintf("%016x", math.Float64bits(math.Ldexp(res.SimTime, k)))
	if got := recordOf(sres); !reflect.DeepEqual(got, wantRec) || sres.RecoveryTime != math.Ldexp(res.RecoveryTime, k) {
		return fmt.Errorf("clock ×2^%d: record %+v, recovery %g; want %+v, %g", k, got, sres.RecoveryTime, wantRec, math.Ldexp(res.RecoveryTime, k))
	}
	return nil
}

// TestFailureTimelines checks the recovery contract on every small failure
// timeline (the small-scope hypothesis: Jackson, Software Abstractions,
// 2006; Andoni et al., 2002) of Poisson2D 8×8 on 4 nodes. The singles are
// every event at iterations 0…12 on every one of the 15 rank subsets, under
// StrategyNone and under IMCR, ESR and ESRP with the unlimited and the
// one-spare pool, no-spare ESR and no-spare ESRP, each at φ ∈ {1, 3}. The
// pairs are every two accepted φ = 1 singles of one variant at ascending
// iterations; tier-1 runs every pairStride-th, -all-timelines all of them.
//
// On each draw: a refusal is the documented one; otherwise the solve
// converges to the failure-free StrategyNone solution within 1e-6 with a true
// relative residual ≤ 5e-8, the event log is expectedLog's, the
// steps add up, each fired event charges recovery time at least the
// detection time, exact recoveries stay within −1…+3
// iterations of the reference, recovery raises the per-node footprint, and
// the recorded schedule re-costs to the live SimTime, RecoveryTime and
// traffic bit for bit. Every fullStride-th draw also checks the trace
// tiling and clock homogeneity.
func TestFailureTimelines(t *testing.T) {
	refs := newTimelineRefs(t, timelineBase())
	failures, drawn := 0, 0
	run := func(d draw) {
		full := drawn%fullStride == 0
		k := []int{1, -2, 10}[drawn/fullStride%3]
		drawn++
		if err := refs.check(d, full, k); err != nil {
			t.Errorf("%v: %v", d, err)
			if failures++; failures == 20 {
				t.FailNow()
			}
		}
	}

	census := map[string]int{}
	accepted := map[string][]draw{} // φ ≤ 1 singles per variant, for the pairs
	for _, v := range timelineVariants {
		phis := []int{1, 3}
		if v.strategy == StrategyNone {
			phis = []int{0}
		}
		for _, phi := range phis {
			for j := 0; j <= timelineLast; j++ {
				for mask := 1; mask < 1<<timelineNodes; mask++ {
					var ranks []int
					for r := range timelineNodes {
						if mask&(1<<r) != 0 {
							ranks = append(ranks, r)
						}
					}
					d := draw{v: v, phi: phi, events: []FailureSpec{ev(j, ranks...)}}
					census[d.refusal(timelineNodes)]++
					run(d)
					if d.refusal(timelineNodes) == "" && phi <= 1 {
						accepted[v.name] = append(accepted[v.name], d)
					}
				}
			}
		}
	}
	wantCensus := map[string]int{
		"": 1300, "contiguous ascending block": 975, "exceed redundancy": 455, "all nodes failing is unrecoverable": 195,
	}
	if !reflect.DeepEqual(census, wantCensus) {
		t.Errorf("single-event census %v, want %v", census, wantCensus)
	}

	singles := drawn
	stride := pairStride
	switch {
	case *allTimelines:
		stride = 1
	case raceEnabled:
		stride = 7 * pairStride
	}
	pairs := 0
	for _, v := range timelineVariants {
		singles := accepted[v.name]
		for _, a := range singles {
			for _, b := range singles {
				if a.events[0].Iteration >= b.events[0].Iteration {
					continue
				}
				if pairs++; pairs%stride == 0 {
					run(draw{v: v, phi: a.phi, events: []FailureSpec{a.events[0], b.events[0]}})
				}
			}
		}
	}
	if pairs != 15054 {
		t.Errorf("%d pairs, want 15 054", pairs)
	}
	t.Logf("%d singles (%d accepted) and %d of %d pairs checked", singles, census[""], drawn-singles, pairs)
}

// randomTimelines checks 30 seeded random one-event draws of the variants
// on Poisson2D 32×32 over 6 nodes, whose settings range wider than the
// enumeration's: T in 1…30 (ESRP 3…32), φ in 1…3, any contiguous block of
// at most φ ranks, any iteration before the reference's last three.
func randomTimelines(t *testing.T, vs ...variant) {
	if testing.Short() {
		t.Skip("property sweep in -short mode")
	}
	a := matgen.Poisson2D(32, 32)
	b, _ := matgen.RHSForSolution(a, 9)
	refs := newTimelineRefs(t, Config{A: a, B: b, Nodes: 6, CostModel: fastModel()})
	rng := rand.New(rand.NewSource(1)) // every run draws the same timelines
	for i := range 30 {
		d := draw{v: vs[rng.Intn(len(vs))], phi: 1 + rng.Intn(3), t: 1 + rng.Intn(30)}
		if d.v.strategy == StrategyESRP {
			d.t += 2
		}
		f := FailureSpec{Iteration: rng.Intn(refs.none.Iterations - 3)}
		psi := 1 + rng.Intn(d.phi)
		first := rng.Intn(6 - psi + 1)
		for r := range psi {
			f.Ranks = append(f.Ranks, first+r)
		}
		d.events = []FailureSpec{f}
		if err := refs.check(d, i%fullStride == 0, 1); err != nil {
			t.Errorf("%v, T = %d: %v", d, d.t, err)
		}
	}
}

func TestESRPExactRecoveryProperty(t *testing.T) { randomTimelines(t, vESRP, vESRPNoSpare) }
func TestIMCRExactRecoveryProperty(t *testing.T) { randomTimelines(t, vIMCR) }

// named runs one timeline through every check of the enumeration, the full
// ones included. The tests below keep the names of the hand-picked scenarios
// the enumeration replaced: each is its scenario's member of the
// enumeration, or its nearest timeline on the same system where the
// scenario had a third event or struck past iteration 12.
func named(t *testing.T, v variant, phi int, events ...FailureSpec) {
	namedModes(t, v, phi, nil, events...)
}

func namedModes(t *testing.T, v variant, phi int, modes []string, events ...FailureSpec) {
	t.Helper()
	d := draw{v: v, phi: phi, events: events, modes: modes}
	if err := newTimelineRefs(t, timelineBase()).check(d, true, -2); err != nil {
		t.Fatalf("%v: %v", d, err)
	}
}

// ESR: a restart at iteration 0, where one redundant copy exists, exact
// reconstruction from 1 on.
func TestESRFailureAtIterationZero(t *testing.T)          { named(t, vESR, 1, ev(0, 3)) }
func TestESRFailureAtIterationOne(t *testing.T)           { named(t, vESR, 1, ev(1, 3)) }
func TestESRSingleFailureExactRecovery(t *testing.T)      { named(t, vESR, 1, ev(6, 3)) }
func TestSingleEventTimeline(t *testing.T)                { named(t, vESR, 1, ev(7, 3)) }
func TestMaxNodeBytesSamplesRecoveryScratch(t *testing.T) { named(t, vESR, 1, ev(8, 2)) }

// ESRP's stages complete at 4, 7 and 10: a failure on a stage's first
// iteration rolls back to the stage before, on its second it loses nothing,
// before the first it restarts; the reference's last iteration is 22, and an
// event past it never fires.
func TestESRPSingleFailureExactRecovery(t *testing.T)            { named(t, vESRP, 1, ev(8, 2)) }
func TestESRPFailureDuringStorageStage(t *testing.T)             { named(t, vESRP, 3, ev(9, 1, 2)) }
func TestESRPFailureAtStageCompletion(t *testing.T)              { named(t, vESRP, 1, ev(10, 3)) }
func TestESRPFailureBeforeFirstStageFallsBack(t *testing.T)      { named(t, vESRP, 1, ev(2, 1)) }
func TestResidualDriftSmall(t *testing.T)                        { named(t, vESRP, 1, ev(8, 3)) }
func TestESRPFailureLastIterationBeforeConvergence(t *testing.T) { named(t, vESRP, 1, ev(22, 3)) }
func TestFailureIterationPastConvergenceNeverFires(t *testing.T) { named(t, vESRP, 1, ev(100, 1)) }

// Blocks at both ends of the rank space wrap Eq. 1's destinations; ψ = φ =
// N−1 leaves one survivor holding every copy.
func TestESRPFailureOfBoundaryRankBlocks(t *testing.T) {
	named(t, vESRP, 3, ev(9, 0, 1))
	named(t, vESRP, 3, ev(9, 2, 3))
}
func TestESRPMultipleNodeFailures(t *testing.T) {
	named(t, vESRP, 3, ev(11, 0, 1, 2))
	named(t, vESRP, 3, ev(11, 1, 2, 3))
}
func TestESRPAllButOneNodeFails(t *testing.T) { named(t, vESRP, 3, ev(7, 1, 2, 3)) }

// IMCR checkpoints after iterations 3, 6 and 9; the one of the failure's own
// iteration is not taken yet.
func TestIMCRSingleFailure(t *testing.T)                         { named(t, vIMCR, 1, ev(8, 1)) }
func TestIMCRFailureExactlyAtCheckpointIteration(t *testing.T)   { named(t, vIMCR, 1, ev(6, 2)) }
func TestIMCRMultipleFailures(t *testing.T)                      { named(t, vIMCR, 3, ev(12, 2, 3)) }
func TestIMCRFailureBeforeFirstCheckpointFallsBack(t *testing.T) { named(t, vIMCR, 1, ev(3, 1)) }

// Timelines: the same node twice, back-to-back events, a re-shipped IMCR
// checkpoint struck before the next stage, restarts under StrategyNone; the
// full checks' clock-scaled solve is the determinism check.
func TestESRMultiEventUnlimitedSpares(t *testing.T) {
	named(t, vESR, 3, ev(3, 1), ev(6, 2, 3), ev(9, 1))
}
func TestESRBackToBackEvents(t *testing.T)    { named(t, vESR, 1, ev(5, 1), ev(6, 2), ev(7, 1)) }
func TestIMCRMultiEvent(t *testing.T)         { named(t, vIMCR, 1, ev(7, 3), ev(8, 0), ev(11, 3)) }
func TestNoneMultiEventRestarts(t *testing.T) { named(t, vNone, 0, ev(4, 1), ev(9, 2, 3)) }
func TestMultiEventDeterminism(t *testing.T)  { named(t, vESRP1, 3, ev(4, 2, 3), ev(7, 1), ev(10, 0)) }

// A one-spare pool: the first event takes the spare, the next shrinks, an
// event on a rank the shrink removed is skipped, and a two-rank event
// shrinks without splitting the pool.
func TestSparePoolExhaustionFallsBackToShrink(t *testing.T) {
	named(t, vESR1, 1, ev(3, 3), ev(6, 1), ev(9, 3))
}
func TestSparePoolExhaustionESRP(t *testing.T)     { named(t, vESRP1, 1, ev(5, 2), ev(8, 3)) }
func TestSparePoolNeverSplitsAnEvent(t *testing.T) { named(t, vESR1, 3, ev(5, 1, 2)) }

// A second ESRP event before the re-filled queues cover the stage again: the
// vote degrades it to a restart from the starred state of 4.
func TestESRPVoteDegradesToRestart(t *testing.T) {
	namedModes(t, vESRP, 1, []string{RecoverySpare, RecoveryRestart}, ev(5, 3), ev(6, 2))
}

// A restart at the first storage iteration, then a reconstruction from the
// stage it re-ran: the survivors' copies from before the restart are gone,
// so the rebuilt state is the restarted process's (x off by 2e-4 when they
// were kept).
func TestESRPRestartDropsStaleCopies(t *testing.T) { named(t, vESRP, 1, ev(3, 0), ev(5, 2)) }

// No spare nodes: the cluster shrinks onto the survivors, whichever end of
// the rank space the block sits at, down to two nodes; a shrink before the
// first storage stage restarts, and so does a second event before the next,
// from where it strikes.
func TestNoSpareESRSingleFailure(t *testing.T)         { named(t, vESRNoSpare, 1, ev(6, 1)) }
func TestNoSpareESRPSingleFailure(t *testing.T)        { named(t, vESRPNoSpare, 1, ev(8, 3)) }
func TestNoSpareESRPMultipleFailures(t *testing.T)     { named(t, vESRPNoSpare, 3, ev(11, 0, 1, 2)) }
func TestNoSpareFailureOfFirstRanks(t *testing.T)      { named(t, vESRPNoSpare, 3, ev(9, 0, 1)) }
func TestNoSpareFailureOfLastRanks(t *testing.T)       { named(t, vESRPNoSpare, 3, ev(9, 2, 3)) }
func TestNoSpareDownToTwoNodes(t *testing.T)           { named(t, vESRPNoSpare, 3, ev(5, 1, 2)) }
func TestNoSpareFallbackBeforeFirstStage(t *testing.T) { named(t, vESRPNoSpare, 1, ev(2, 2)) }
func TestNoSpareContinuedResilienceAfterShrink(t *testing.T) {
	named(t, vESRPNoSpare, 3, ev(7, 1, 2), ev(11, 0))
}
func TestNoSpareRestartThenSecondEvent(t *testing.T) { named(t, vESRPNoSpare, 1, ev(1, 3), ev(2, 1)) }
