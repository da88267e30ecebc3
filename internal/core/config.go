// Package core implements the paper's primary contribution: the distributed
// preconditioned conjugate gradient solver (Alg. 1) with pluggable
// node-failure resilience — ESR (exact state reconstruction, redundant
// storage every iteration), ESRP (ESR with periodic storage every T
// iterations, Alg. 3, the paper's new method), and IMCR (in-memory buddy
// checkpoint-restart, the baseline) — including the exact state
// reconstruction procedure of Alg. 2 run on replacement nodes after an
// injected node failure.
package core

import (
	"fmt"
	"strings"
	"time"

	"esrp/internal/cluster"
	"esrp/internal/hostobs"
	"esrp/internal/obs"
	"esrp/internal/precond"
	"esrp/internal/replay"
	"esrp/internal/sparse"
)

// Strategy selects the resilience scheme of a solve.
type Strategy int

// Available strategies.
const (
	// StrategyNone runs plain PCG with no redundancy. If a failure is
	// injected, the solver performs a "local restart": lost entries are
	// zeroed and r, z, p are re-initialized from the surviving iterand —
	// the costly scenario that motivates ESR (cf. [Pachajoa & Gansterer
	// 2017], cited as [19] in the paper).
	StrategyNone Strategy = iota
	// StrategyESR stores redundant copies in every iteration (T = 1).
	StrategyESR
	// StrategyESRP stores redundant copies in two consecutive iterations
	// every T iterations (the paper's contribution, Alg. 3).
	StrategyESRP
	// StrategyIMCR checkpoints all dynamic vectors to φ buddy nodes every T
	// iterations.
	StrategyIMCR
)

// String returns the paper's name for the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyNone:
		return "none"
	case StrategyESR:
		return "ESR"
	case StrategyESRP:
		return "ESRP"
	case StrategyIMCR:
		return "IMCR"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy converts a name to a Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "none", "reference", "pcg":
		return StrategyNone, nil
	case "esr", "ESR":
		return StrategyESR, nil
	case "esrp", "ESRP":
		return StrategyESRP, nil
	case "imcr", "IMCR", "cr":
		return StrategyIMCR, nil
	}
	return StrategyNone, fmt.Errorf("core: unknown strategy %q", s)
}

// FailureSpec describes one injected node-failure event, mirroring the
// paper's framework: the ranks of the affected nodes and the iteration at
// which they fail are passed as parameters; at that iteration the nodes
// zero out all their dynamic data and act as their own replacements.
type FailureSpec struct {
	// Iteration at which the failure strikes. The failure is injected
	// immediately after the SpMV communication of this iteration, the point
	// at which redundant copies for the iteration (if any) have been pushed.
	Iteration int `json:"iteration"`
	// Ranks lists the failed nodes (ascending). The paper uses contiguous
	// blocks; ESR/ESRP recovery requires contiguity of the lost index range
	// only for the inner-system extraction, and this implementation checks
	// and enforces it.
	Ranks []int `json:"ranks"`
}

// Config describes one solve.
type Config struct {
	A  *sparse.CSR // sparse SPD system matrix (shared, read-only)
	B  []float64   // right-hand side, length A.Rows
	X0 []float64   // initial guess (nil = zero vector)

	Nodes int // number of simulated cluster nodes

	Rtol    float64 // convergence: ‖r‖₂/‖b‖₂ < Rtol (0 = the paper's 1e-8; negative is an error)
	MaxIter int     // iteration cap (0 = 10·M; negative is an error)

	PrecondKind precond.Kind // paper: block Jacobi
	MaxBlock    int          // block Jacobi maximum block size (0 = the paper's 10; negative is an error)

	// Kernel selects the storage layout of the local SpMV. The zero value
	// KernelAuto lets the Prepare-time planner inspect each node's interior
	// and boundary row blocks and pick per block (constant-band for stencil
	// runs, SELL-C for regular-width blocks, scalar CSR otherwise); the
	// forced kinds exist for ablation and irregular inputs. Every kind
	// computes identical per-row sums in identical order, so trajectories,
	// the simulated clock and all traffic counters are bitwise invariant
	// under this knob — only host wall-clock changes.
	Kernel sparse.KernelKind

	Strategy Strategy
	T        int // checkpointing interval (ignored for None/ESR)
	// Phi is the redundancy: copies kept, simultaneous failures supported
	// (0 = 1 for ESR, ESRP and IMCR; negative is an error).
	Phi int

	InnerRtol float64 // reconstruction inner-solve tolerance (paper: 1e-14)

	// Failure injects a single node-failure event — the paper's framework.
	// It is shorthand for a one-element Failures timeline; setting both is an
	// error.
	Failure *FailureSpec

	// Failures is the multi-event failure timeline: events fire in order at
	// strictly increasing iterations (validated eagerly). Each event destroys
	// the dynamic state of its ranks exactly like the single-event framework;
	// the strategy's recovery runs after every event. Ranks are interpreted
	// in the rank space current at fire time (identical to the initial space
	// until a no-spare shrink removes nodes).
	Failures []FailureSpec

	// Spares is the replacement-node pool the recovery draws from: 0 means
	// an unlimited pool (every failed node is replaced — the paper's
	// framework, where failed nodes act as their own replacements); n > 0
	// caps the pool at n nodes, depleted across the failure timeline. Once
	// the pool cannot cover an event, ESR/ESRP recovery falls back to the
	// no-spare shrink path of [Pachajoa, Pacher, Gansterer 2019]: a survivor
	// adopts the failed rows and the solve continues on the smaller cluster.
	// A finite pool therefore requires ESR or ESRP. NoSpareNodes is the
	// pool-of-zero special case.
	Spares int

	CostModel *cluster.CostModel // nil = cluster.DefaultCostModel()

	// NoSpareNodes switches ESR/ESRP recovery to the spare-free variant of
	// [Pachajoa, Pacher, Gansterer 2019] (ref. 22 of the paper): failed
	// nodes are not replaced; a surviving node adjacent to the failed block
	// adopts its rows, the exact state is reconstructed there, and the
	// solve continues on the shrunken cluster with the identical
	// preconditioner operator (so the trajectory is preserved).
	NoSpareNodes bool

	// DetectionTime adds a fixed simulated cost (seconds) to every node's
	// clock when a failure strikes, standing in for the middleware tasks
	// the paper's framework leaves unmodeled (Section 4: detecting the
	// failure, identifying the lost ranks, re-establishing the
	// communicator, e.g. via ULFM). The paper argues this cost is
	// comparable across strategies; the knob lets users include it.
	DetectionTime float64

	// BalanceNNZ switches the block row distribution from uniform row
	// counts to contiguous ranges of balanced nonzero counts (see
	// dist.NewBalancedWeightPartition) — the paper's future-work question
	// of SpMV-optimizing partitioning strategies. All resilience machinery
	// works unchanged: it only requires contiguous ownership.
	BalanceNNZ bool

	// BlockingExchange disables the overlap of the interior-rows product
	// with the in-flight halo exchange: the SpMV waits for all ghost entries
	// before computing any row, as the pre-overlap implementation did. The
	// numerical trajectory is identical either way (the same per-row sums in
	// the same order); only the simulated clock differs. Ablation knob for
	// measuring what the overlap buys (see BenchmarkExchangeOverlap).
	BlockingExchange bool

	// ResidualReplacementInterval R > 0 replaces the recurrence residual
	// with the true residual b − A·x every R productive iterations (van der
	// Vorst & Ye, ref. 27 of the paper), curbing the residual drift that
	// Table 4 measures, at the cost of one extra SpMV per replacement. The
	// replacement happens before z, β and p are computed, so the search
	// direction recurrence p = z + β·p_prev — and with it the exact state
	// reconstruction — remains valid. 0 disables replacement; negative is
	// an error.
	ResidualReplacementInterval int

	// RecordResiduals appends the relative residual of every productive
	// iteration to Result.Residuals (costs memory, intended for examples
	// and tests).
	RecordResiduals bool

	// Prepared supplies a prebuilt read-only solve context (partition, plan,
	// local matrices, preconditioners) from Prepare. Settings must match the
	// config (validated); nil rebuilds everything per solve. Sharing one
	// Prepared across solves — concurrent ones included — is safe and is how
	// the campaign engine amortizes setup across grid cells.
	Prepared *Prepared

	// Workspace recycles the per-rank solver vector buffers between
	// consecutive solves (see Workspace). A Workspace must not be shared by
	// two solves running at the same time; nil allocates fresh vectors.
	Workspace *Workspace

	// Observe enables the observability layer (internal/obs): per-rank span
	// timelines on the simulated clock and/or the per-iteration metric
	// series, returned in Result.Trace. Nil (the default) records nothing
	// and adds zero overhead — the recorder is nil-checked on every hot
	// path, so trajectories, the simulated clock and the zero-allocation
	// guarantees are bit-identical with observation off. With observation
	// on, the recorded data is itself deterministic (simulated timestamps,
	// single-writer per-rank buffers).
	Observe *obs.Options

	// Record captures the solve's abstract event schedule (internal/replay):
	// each rank's program-order stream of compute, point-to-point and
	// collective events plus the recovery-section markers, so the finished
	// schedule can be re-costed under any machine model in O(events)
	// without re-running the solve. One recorder records one solve. Nil
	// (the default) records nothing and keeps the zero-overhead hot path —
	// trajectories, the simulated clock and the zero-allocation guarantees
	// are bit-identical with recording off.
	Record *replay.Recorder

	// HostStats enables host-side collective telemetry (internal/hostobs):
	// per-member wall-clock wait histograms (a wait is a rank's yield at an
	// incomplete collective to its resumption), arrival-order skew, and
	// abort counts from the phase underneath every collective. It must have
	// capacity ≥ Nodes (validated) and may be shared by many solves —
	// campaign runs hand every cell the same stats so the histograms
	// aggregate over the whole sweep. Nil (the default) records nothing: the
	// collective hot path then pays one nil check and never reads the wall
	// clock, keeping the zero-allocation and determinism guarantees exactly
	// as without it.
	HostStats *hostobs.BarrierStats
}

// withDefaults returns a copy of cfg with defaults applied, or an error if
// the configuration is invalid.
func (cfg Config) withDefaults() (Config, error) {
	if cfg.A == nil {
		return cfg, fmt.Errorf("core: missing matrix")
	}
	if cfg.A.Rows != cfg.A.Cols {
		return cfg, fmt.Errorf("core: matrix must be square, got %dx%d", cfg.A.Rows, cfg.A.Cols)
	}
	if len(cfg.B) != cfg.A.Rows {
		return cfg, fmt.Errorf("core: rhs length %d != matrix size %d", len(cfg.B), cfg.A.Rows)
	}
	if cfg.X0 != nil && len(cfg.X0) != cfg.A.Rows {
		return cfg, fmt.Errorf("core: x0 length %d != matrix size %d", len(cfg.X0), cfg.A.Rows)
	}
	if cfg.Nodes <= 0 {
		return cfg, fmt.Errorf("core: node count must be positive, got %d", cfg.Nodes)
	}
	if cfg.Nodes > cfg.A.Rows {
		return cfg, fmt.Errorf("core: more nodes (%d) than rows (%d)", cfg.Nodes, cfg.A.Rows)
	}
	if cfg.HostStats != nil && cfg.HostStats.Cap() < cfg.Nodes {
		return cfg, fmt.Errorf("core: HostStats capacity %d < %d nodes", cfg.HostStats.Cap(), cfg.Nodes)
	}
	if cfg.Rtol < 0 {
		return cfg, fmt.Errorf("core: tolerance must be ≥ 0 (0 = 1e-8), got %g", cfg.Rtol)
	}
	if cfg.Rtol == 0 {
		cfg.Rtol = 1e-8
	}
	if cfg.MaxIter < 0 {
		return cfg, fmt.Errorf("core: iteration cap must be ≥ 0 (0 = 10·rows), got %d", cfg.MaxIter)
	}
	if cfg.MaxIter == 0 {
		cfg.MaxIter = 10 * cfg.A.Rows
	}
	if cfg.MaxBlock < 0 {
		return cfg, fmt.Errorf("core: block Jacobi block size must be ≥ 0 (0 = 10), got %d", cfg.MaxBlock)
	}
	if cfg.MaxBlock == 0 {
		cfg.MaxBlock = 10
	}
	if cfg.PrecondKind == precond.Default {
		cfg.PrecondKind = precond.BlockJacobi // the paper's choice
	}
	if !cfg.Kernel.Valid() {
		return cfg, fmt.Errorf("core: invalid SpMV kernel kind %d", int(cfg.Kernel))
	}
	if cfg.InnerRtol <= 0 {
		cfg.InnerRtol = 1e-14
	}
	if cfg.Phi < 0 {
		return cfg, fmt.Errorf("core: phi must be ≥ 0 (0 = 1 for redundant strategies), got %d", cfg.Phi)
	}
	if cfg.ResidualReplacementInterval < 0 {
		return cfg, fmt.Errorf("core: residual replacement interval must be ≥ 0 (0 = off), got %d", cfg.ResidualReplacementInterval)
	}
	switch cfg.Strategy {
	case StrategyNone:
	case StrategyESR:
		cfg.T = 1
		if cfg.Phi == 0 {
			cfg.Phi = 1
		}
	case StrategyESRP:
		if cfg.T <= 2 {
			return cfg, fmt.Errorf("core: ESRP requires T > 2 (use StrategyESR for T ≤ 2), got %d", cfg.T)
		}
		if cfg.Phi == 0 {
			cfg.Phi = 1
		}
	case StrategyIMCR:
		if cfg.T <= 0 {
			return cfg, fmt.Errorf("core: IMCR requires T ≥ 1, got %d", cfg.T)
		}
		if cfg.Phi == 0 {
			cfg.Phi = 1
		}
	default:
		return cfg, fmt.Errorf("core: unknown strategy %d", int(cfg.Strategy))
	}
	if cfg.Phi > 0 && cfg.Phi > cfg.Nodes-1 {
		return cfg, fmt.Errorf("core: phi=%d requires at least %d nodes, have %d", cfg.Phi, cfg.Phi+1, cfg.Nodes)
	}
	if cfg.NoSpareNodes {
		if cfg.Strategy != StrategyESR && cfg.Strategy != StrategyESRP {
			return cfg, fmt.Errorf("core: NoSpareNodes requires ESR or ESRP, got %v", cfg.Strategy)
		}
	}
	if cfg.Spares < 0 {
		return cfg, fmt.Errorf("core: spare pool must be ≥ 0 (0 = unlimited), got %d", cfg.Spares)
	}
	if cfg.Spares > 0 {
		if cfg.Strategy != StrategyESR && cfg.Strategy != StrategyESRP {
			return cfg, fmt.Errorf("core: a finite spare pool requires ESR or ESRP (the shrink fallback), got %v", cfg.Strategy)
		}
		if cfg.NoSpareNodes {
			return cfg, fmt.Errorf("core: NoSpareNodes (empty pool) conflicts with Spares=%d", cfg.Spares)
		}
	}
	if cfg.Failure != nil {
		if len(cfg.Failures) > 0 {
			return cfg, fmt.Errorf("core: set either Failure (single event) or Failures (timeline), not both")
		}
		cfg.Failures = []FailureSpec{*cfg.Failure}
	}
	for k := range cfg.Failures {
		f := &cfg.Failures[k]
		if err := f.validate(cfg.Nodes); err != nil {
			return cfg, fmt.Errorf("core: failure event %d: %w", k, err)
		}
		if cfg.Strategy != StrategyNone && len(f.Ranks) > cfg.Phi {
			return cfg, fmt.Errorf("core: failure event %d: %d simultaneous failures exceed redundancy phi=%d", k, len(f.Ranks), cfg.Phi)
		}
		if k > 0 && f.Iteration <= cfg.Failures[k-1].Iteration {
			return cfg, fmt.Errorf("core: failure events out of order: event %d at iteration %d is not after event %d at iteration %d",
				k, f.Iteration, k-1, cfg.Failures[k-1].Iteration)
		}
	}
	return cfg, nil
}

// validate checks one failure event against a cluster of n nodes: non-empty
// contiguous ascending ranks (duplicates included in the check), ranks in
// range, not the whole cluster, and a non-negative iteration.
func (f *FailureSpec) validate(n int) error {
	if len(f.Ranks) == 0 {
		return fmt.Errorf("failure spec without ranks")
	}
	for i, r := range f.Ranks {
		if r < 0 || r >= n {
			return fmt.Errorf("failed rank %d out of range [0,%d)", r, n)
		}
		if i > 0 && f.Ranks[i] == f.Ranks[i-1] {
			return fmt.Errorf("duplicate failed rank %d in %v", r, f.Ranks)
		}
		if i > 0 && f.Ranks[i] != f.Ranks[i-1]+1 {
			return fmt.Errorf("failed ranks must be a contiguous ascending block, got %v", f.Ranks)
		}
	}
	if len(f.Ranks) >= n {
		return fmt.Errorf("all nodes failing is unrecoverable")
	}
	if f.Iteration < 0 {
		return fmt.Errorf("failure iteration must be ≥ 0, got %d", f.Iteration)
	}
	return nil
}

// Recovery modes of a handled failure event (RecoveryEvent.Mode).
const (
	// RecoverySpare: the failed ranks were replaced from the spare pool and
	// the exact state was reconstructed on the replacements (Alg. 2), or an
	// IMCR checkpoint was restored.
	RecoverySpare = "spare"
	// RecoveryShrink: no spare was available; a surviving node adopted the
	// failed rows and the cluster continued smaller (no-spare recovery).
	RecoveryShrink = "shrink"
	// RecoveryRestart: nothing to reconstruct from (no completed storage
	// stage, or redundant copies incomplete after an earlier loss); the
	// Krylov process restarted from the surviving iterand.
	RecoveryRestart = "restart"
	// RecoverySkipped: the event could not be applied to the current cluster
	// (e.g. its ranks no longer exist after a shrink) and was dropped.
	RecoverySkipped = "skipped"
)

// RecoveryEvent records one handled failure event of the timeline.
type RecoveryEvent struct {
	Iteration   int    `json:"iteration"`    // iteration the failure struck
	Ranks       []int  `json:"ranks"`        // failed ranks, in the rank space current at fire time
	Mode        string `json:"mode"`         // Recovery* constant
	RecoveredAt int    `json:"recovered_at"` // iteration the solver resumed from
	WastedIters int    `json:"wasted_iters"` // iterations discarded by this event's rollback
	SparesLeft  int    `json:"spares_left"`  // replacement nodes remaining afterwards (-1 = unlimited)
	ActiveNodes int    `json:"active_nodes"` // nodes still iterating after the event
}

// String renders the event for logs and reports: what failed, how it was
// recovered, and what the cluster looked like afterwards.
func (ev RecoveryEvent) String() string {
	spares := "∞"
	if ev.SparesLeft >= 0 {
		spares = fmt.Sprintf("%d", ev.SparesLeft)
	}
	return fmt.Sprintf("iteration %d, ranks %v → %s recovery, resumed at %d (%d active nodes, %s spares left)",
		ev.Iteration, ev.Ranks, ev.Mode, ev.RecoveredAt, ev.ActiveNodes, spares)
}

// Result reports the outcome of a solve.
type Result struct {
	X []float64 // converged iterand (global, gathered)

	Converged   bool
	Iterations  int     // trajectory length: PCG iterations along the final trajectory
	TotalSteps  int     // loop iterations executed, including rolled-back work
	RelResidual float64 // final ‖r‖₂/‖b‖₂ (recurrence residual)

	SimTime      float64       // modeled runtime: max simulated clock over nodes (seconds)
	WallTime     time.Duration // host wall-clock of the simulated run
	RecoveryTime float64       // modeled time of gathers + reconstruction (0 if no failure)
	WastedIters  int           // iterations discarded by the rollback (0 if no failure)

	Recovered   bool    // at least one failure was injected and recovery succeeded
	RecoveredAt int     // the iteration the last recovery rolled back to
	Drift       float64 // residual drift, Eq. 2 of the paper
	ActiveNodes int     // nodes still iterating at the end (< Nodes after a no-spare recovery)

	// Events records every failure event that fired, in timeline order —
	// including events skipped because their ranks no longer existed.
	// Events scheduled after the solve converged (or past MaxIter) never
	// fire and have no entry, so len(Events) can be below len(Failures).
	Events []RecoveryEvent

	BytesSent int64 // total point-to-point payload volume
	MsgsSent  int64

	// MaxNodeBytes is the largest per-node dynamic solver footprint (local
	// vector blocks, owned+ghost SpMV buffer, redundant storage) over all
	// nodes — O(n/s + halo), independent of the global size, now that no
	// solver path holds a full-length vector after setup. Transient recovery
	// scratch (the reconstruction gathers, the no-spare adopter's
	// repartitioning buffers, checkpoint payloads in flight) is sampled at
	// its peak too, so recovery-heavy scenarios report their true high-water
	// mark rather than the steady state.
	MaxNodeBytes int64
	// HaloBytes is the measured halo payload volume (plain ghost entries
	// plus resilient copies) actually shipped by the SpMV exchanges, summed
	// over nodes — as opposed to the planned volume of aspmv.ExtraTraffic.
	HaloBytes int64

	// Kernels holds each node's SpMV kernel layout ("csr", "sellc", "band",
	// or a mixed interior+boundary pair) as chosen by Config.Kernel and, for
	// KernelAuto, the Prepare-time planner. Condense for display with
	// CondenseKernels. Purely host-side metadata: the choice never affects
	// trajectories or the simulated clock.
	Kernels []string

	Residuals []float64 // per-iteration ‖r‖/‖b‖ if RecordResiduals

	// Trace is the observability record of the solve — span timelines,
	// recovery envelopes, the per-iteration series — when Config.Observe
	// asked for one; nil otherwise. Export with Trace.WriteChrome
	// (perfetto-viewable) or inspect via the structured API.
	Trace *obs.Trace
}

// CondenseKernels condenses per-node kernel layout names (Result.Kernels)
// into a compact "name×count" display, counts in first-seen node order:
// e.g. "band+sellc×14, csr×2".
func CondenseKernels(names []string) string {
	if len(names) == 0 {
		return ""
	}
	counts := make(map[string]int, 4)
	var order []string
	for _, n := range names {
		if counts[n] == 0 {
			order = append(order, n)
		}
		counts[n]++
	}
	if len(names) == 1 {
		return names[0]
	}
	var b strings.Builder
	for i, n := range order {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s×%d", n, counts[n])
	}
	return b.String()
}
