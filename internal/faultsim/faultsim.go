// Package faultsim generates deterministic, seeded node-failure scenarios
// for the resilient solver — the workload axis the paper leaves open. The
// paper's framework injects a single failure event at a marked iteration;
// its conclusions about checkpoint intervals and overheads become actionable
// only under realistic failure *processes*: repeated, clustered, and
// correlated node losses over a long solve.
//
// A Scenario describes such a process — a fixed schedule, or per-node
// exponential/Weibull inter-arrival draws (MTBF-parameterized, in units of
// solver iterations) with optional correlated group failures (a "blade" of
// adjacent ranks dying together) — and Compile turns it into the ordered
// event list []core.FailureSpec that core.Config.Failures consumes. The same
// seed always compiles to the same events, so whole experiment campaigns are
// bitwise reproducible.
package faultsim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"esrp/internal/core"
)

// Model selects the inter-arrival process of a scenario.
type Model int

// Available failure-process models.
const (
	// ModelFixed replays an explicit schedule (Scenario.Schedule) verbatim,
	// after validation — the multi-event generalization of the paper's
	// marked-iteration injection.
	ModelFixed Model = iota
	// ModelExponential draws each node's failure times from a Poisson
	// process: i.i.d. exponential inter-arrivals with mean MTBF iterations.
	// Memoryless — the classic cluster-failure assumption behind the
	// Young/Daly checkpoint models the paper cites.
	ModelExponential
	// ModelWeibull draws i.i.d. Weibull inter-arrivals with mean MTBF and
	// shape k (Shape < 1: infant-mortality clustering, failures bunch early
	// after each repair; Shape > 1: wear-out, hazard grows with uptime;
	// Shape = 1 reduces to ModelExponential).
	ModelWeibull
)

// ParseModel converts a CLI name to a Model.
func ParseModel(s string) (Model, error) {
	switch strings.ToLower(s) {
	case "fixed", "schedule":
		return ModelFixed, nil
	case "exp", "exponential", "poisson":
		return ModelExponential, nil
	case "weibull":
		return ModelWeibull, nil
	}
	return ModelFixed, fmt.Errorf("faultsim: unknown model %q", s)
}

// Scenario describes one failure process. The zero value is not valid; at
// minimum Nodes, Horizon and (for the stochastic models) MTBF must be set.
type Scenario struct {
	Model Model
	Nodes int // cluster size the failed ranks are drawn from

	// Horizon is the last iteration (inclusive) at which failures may
	// strike; events are generated in [1, Horizon]. Iteration 0 is excluded
	// so every scenario leaves the bootstrap iteration intact.
	Horizon int

	// MTBF is the per-node mean number of iterations between failures
	// (stochastic models). The cluster-level failure rate is Nodes/MTBF.
	MTBF float64

	// Shape is the Weibull shape parameter k (ModelWeibull only). Zero
	// means unset and defaults to 1, which reduces to the exponential
	// process; negative values are rejected.
	Shape float64

	// GroupSize > 1 enables correlated group failures: ranks are tiled into
	// aligned blades of GroupSize adjacent ranks (sharing a power supply,
	// chassis, or switch), and a failing node takes its whole blade down
	// with probability GroupProb.
	GroupSize int
	// GroupProb is the probability that an arrival escalates to its full
	// blade (default 0; ignored when GroupSize ≤ 1).
	GroupProb float64

	// MaxEvents caps the compiled event count (0 = no cap).
	MaxEvents int

	Seed int64 // RNG seed; same seed ⇒ identical compiled events

	// Schedule is the explicit event list for ModelFixed.
	Schedule []core.FailureSpec
}

// Validate checks the scenario parameters, and a fixed schedule's events
// against the contract the generated timelines keep on s.Nodes nodes; Compile
// runs it first.
func (s Scenario) Validate() error {
	if s.Nodes < 2 {
		return fmt.Errorf("faultsim: need at least 2 nodes, got %d", s.Nodes)
	}
	if s.Model == ModelFixed {
		if len(s.Schedule) == 0 {
			return fmt.Errorf("faultsim: fixed model without a schedule")
		}
		at := make(map[int]bool, len(s.Schedule))
		for i, ev := range s.Schedule {
			if ev.Iteration < 1 {
				return fmt.Errorf("faultsim: event %d at iteration %d: scenarios start at iteration 1", i, ev.Iteration)
			}
			if at[ev.Iteration] {
				return fmt.Errorf("faultsim: two events at iteration %d; merge their ranks or stagger them", ev.Iteration)
			}
			at[ev.Iteration] = true
			if len(ev.Ranks) == 0 {
				return fmt.Errorf("faultsim: event %d has no ranks", i)
			}
			for k, r := range ev.Ranks {
				if r < 0 || r >= s.Nodes {
					return fmt.Errorf("faultsim: event %d rank %d out of range [0,%d)", i, r, s.Nodes)
				}
				if k > 0 && r != ev.Ranks[k-1]+1 {
					return fmt.Errorf("faultsim: event %d ranks %v are not a contiguous ascending block", i, ev.Ranks)
				}
			}
			if len(ev.Ranks) >= s.Nodes {
				return fmt.Errorf("faultsim: event %d kills all %d nodes", i, s.Nodes)
			}
		}
		return nil
	}
	if s.Horizon < 1 {
		return fmt.Errorf("faultsim: horizon must be ≥ 1 iteration, got %d", s.Horizon)
	}
	if s.MTBF <= 0 {
		return fmt.Errorf("faultsim: MTBF must be positive (iterations), got %g", s.MTBF)
	}
	if s.Model == ModelWeibull && s.Shape < 0 {
		return fmt.Errorf("faultsim: Weibull shape must be positive (or 0 for the default of 1), got %g", s.Shape)
	}
	if s.GroupSize < 0 || s.GroupSize >= s.Nodes {
		return fmt.Errorf("faultsim: group size must be in [0,%d), got %d", s.Nodes, s.GroupSize)
	}
	if s.GroupProb < 0 || s.GroupProb > 1 {
		return fmt.Errorf("faultsim: group probability must be in [0,1], got %g", s.GroupProb)
	}
	if s.MaxEvents < 0 {
		return fmt.Errorf("faultsim: MaxEvents must be ≥ 0, got %d", s.MaxEvents)
	}
	return nil
}

// String describes the process for logs and reports. The seed is appended
// only when set: sweeps that override it per run (e.g. campaign grids)
// describe the process once, with the seed list reported separately.
func (s Scenario) String() string {
	var desc string
	switch s.Model {
	case ModelFixed:
		return fmt.Sprintf("fixed schedule, %d events", len(s.Schedule))
	case ModelWeibull:
		desc = fmt.Sprintf("weibull(MTBF=%g it/node, k=%g), horizon %d, groups %d@%.2f",
			s.MTBF, s.shape(), s.Horizon, s.GroupSize, s.GroupProb)
	default:
		desc = fmt.Sprintf("exponential(MTBF=%g it/node), horizon %d, groups %d@%.2f",
			s.MTBF, s.Horizon, s.GroupSize, s.GroupProb)
	}
	if s.Seed != 0 {
		desc += fmt.Sprintf(", seed %d", s.Seed)
	}
	return desc
}

func (s Scenario) shape() float64 {
	if s.Model == ModelWeibull && s.Shape > 0 {
		return s.Shape
	}
	return 1
}

// arrival is one raw per-node failure draw before event folding.
type arrival struct {
	time float64 // continuous time in iterations
	rank int
}

// Compile turns the scenario into the ordered event list core consumes:
// events at strictly increasing iterations ≥ 1, each with a contiguous
// ascending rank block. Compilation is deterministic in the scenario value
// (same seed ⇒ identical slice).
func (s Scenario) Compile() ([]core.FailureSpec, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Model == ModelFixed {
		return s.compileFixed(), nil
	}

	rng := rand.New(rand.NewSource(s.Seed))
	// Weibull scale λ chosen so the mean inter-arrival is MTBF:
	// E = λ·Γ(1+1/k). For k = 1 (and the exponential model) λ = MTBF.
	k := s.shape()
	scale := s.MTBF / math.Gamma(1+1/k)

	// Per-node renewal processes, nodes in rank order so the draw sequence
	// is reproducible.
	var arrivals []arrival
	for rank := 0; rank < s.Nodes; rank++ {
		t := 0.0
		for {
			u := rng.Float64()
			dt := scale * math.Pow(-math.Log(1-u), 1/k)
			t += dt
			if t > float64(s.Horizon) {
				break
			}
			arrivals = append(arrivals, arrival{time: t, rank: rank})
		}
	}
	sort.Slice(arrivals, func(i, j int) bool {
		if arrivals[i].time != arrivals[j].time {
			return arrivals[i].time < arrivals[j].time
		}
		return arrivals[i].rank < arrivals[j].rank
	})

	// Fold arrivals into the event timeline: map continuous times to
	// iterations, push forward to keep iterations strictly increasing (the
	// core contract), and escalate to the blade on the correlation draw.
	var events []core.FailureSpec
	prevIter := 0
	for _, a := range arrivals {
		if s.MaxEvents > 0 && len(events) >= s.MaxEvents {
			break
		}
		iter := max(int(a.time), prevIter+1)
		if iter > s.Horizon {
			break
		}
		ranks := []int{a.rank}
		if s.GroupSize > 1 && rng.Float64() < s.GroupProb {
			ranks = blade(a.rank, s.GroupSize, s.Nodes)
		}
		events = append(events, core.FailureSpec{Iteration: iter, Ranks: ranks})
		prevIter = iter
	}
	return events, nil
}

// compileFixed sorts a copy of the explicit schedule, which Validate
// checked, by iteration.
func (s Scenario) compileFixed() []core.FailureSpec {
	events := make([]core.FailureSpec, len(s.Schedule))
	for i, ev := range s.Schedule {
		events[i] = core.FailureSpec{
			Iteration: ev.Iteration,
			Ranks:     append([]int(nil), ev.Ranks...),
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Iteration < events[j].Iteration })
	return events
}

// blade returns the aligned group of width g containing rank r, clipped to
// the cluster — the correlated-failure unit (ranks sharing a chassis).
// Validate guarantees g < nodes, so a blade never covers the whole
// cluster.
func blade(r, g, nodes int) []int {
	lo := (r / g) * g
	hi := min(lo+g, nodes)
	ranks := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		ranks = append(ranks, i)
	}
	return ranks
}

// ParseSchedule reads the CLI form of a fixed schedule on a cluster of
// nodes ranks — "iter:r0-r1;iter:r0;..." (e.g. "20:2-3;50:5" = ranks {2,3}
// fail at iteration 20, rank 5 at iteration 50) — into an event list for
// Scenario.Schedule. A rank ≥ nodes is refused before its range is
// expanded, so an event holds at most nodes ranks. Validation beyond that
// happens in Compile.
func ParseSchedule(s string, nodes int) ([]core.FailureSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("faultsim: empty schedule")
	}
	var out []core.FailureSpec
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		iterRanks := strings.SplitN(part, ":", 2)
		if len(iterRanks) != 2 {
			return nil, fmt.Errorf("faultsim: event %q is not iter:ranks", part)
		}
		iter, err := strconv.Atoi(strings.TrimSpace(iterRanks[0]))
		if err != nil {
			return nil, fmt.Errorf("faultsim: event %q: bad iteration: %w", part, err)
		}
		var lo, hi int
		if lohi := strings.SplitN(iterRanks[1], "-", 2); len(lohi) == 2 {
			var err1, err2 error
			lo, err1 = strconv.Atoi(strings.TrimSpace(lohi[0]))
			hi, err2 = strconv.Atoi(strings.TrimSpace(lohi[1]))
			if err1 != nil || err2 != nil || hi < lo {
				return nil, fmt.Errorf("faultsim: event %q: bad rank range", part)
			}
		} else {
			if lo, err = strconv.Atoi(strings.TrimSpace(iterRanks[1])); err != nil {
				return nil, fmt.Errorf("faultsim: event %q: bad rank: %w", part, err)
			}
			hi = lo
		}
		if hi >= nodes {
			return nil, fmt.Errorf("faultsim: event %q: rank %d ≥ %d nodes", part, hi, nodes)
		}
		ranks := make([]int, 0, hi-lo+1)
		for r := lo; r <= hi; r++ {
			ranks = append(ranks, r)
		}
		out = append(out, core.FailureSpec{Iteration: iter, Ranks: ranks})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("faultsim: empty schedule")
	}
	return out, nil
}
