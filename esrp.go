// Package esrp is a node-failure-resilient preconditioned conjugate gradient
// (PCG) solver on a simulated distributed-memory cluster, reproducing
//
//	Pachajoa, Pacher, Levonyak, Gansterer:
//	"Algorithm-Based Checkpoint-Recovery for the Conjugate Gradient Method",
//	ICPP 2020 (DOI 10.1145/3404397.3404438).
//
// The solver distributes a sparse symmetric positive-definite system over N
// simulated nodes (block row partition) and protects the solve against the
// simultaneous failure of up to φ nodes with one of three strategies:
//
//   - ESR — exact state reconstruction: every iteration's sparse
//     matrix–vector product is augmented so that each entry of the search
//     direction is replicated on φ other nodes; after a failure the exact
//     solver state is reconstructed by running the PCG recurrences backwards
//     (Alg. 2 of the paper).
//   - ESRP — ESR with periodic storage (the paper's contribution): redundant
//     copies are stored only in two consecutive iterations every T
//     iterations, making ESR an algorithm-based checkpoint-restart method
//     with tunable interval (Alg. 3).
//   - IMCR — in-memory buddy checkpoint-restart (the baseline): every T
//     iterations each node ships its dynamic vectors to φ buddy nodes.
//
// Failures are injected experimentally, exactly as in the paper's framework:
// at a marked iteration the chosen ranks zero their dynamic state and act as
// their own replacement nodes.
//
// # Quickstart
//
//	a := esrp.Poisson2D(64, 64)
//	b := esrp.RHSOnes(a.Rows)
//	res, err := esrp.Solve(esrp.Config{
//		A: a, B: b, Nodes: 8,
//		Strategy: esrp.StrategyESRP, T: 20, Phi: 1,
//		Failure:  &esrp.FailureSpec{Iteration: 50, Ranks: []int{3}},
//	})
//
// Runtime is reported on a deterministic simulated clock (LogGP model); see
// internal/cluster for the machine model and DESIGN.md for the substitutions
// made relative to the paper's 128-node MPI setup.
//
// The SpMV data path is fully localized, as in production distributed CG
// codes: every node holds only its block rows in a compact owned+ghost index
// space (O(n/s + halo) memory, never a full-length vector), and the halo
// exchange runs in nonblocking Start/Finish halves with the interior-rows
// product overlapped with the in-flight messages — the overlap shows up
// directly in the simulated runtime. Result.MaxNodeBytes reports the largest
// per-node footprint and Result.HaloBytes the measured halo traffic;
// Config.BlockingExchange disables the overlap for ablation (bitwise
// identical trajectories, strictly slower modeled runtime).
package esrp

import (
	"io"

	"esrp/internal/campaign"
	"esrp/internal/ccache"
	"esrp/internal/ckptmodel"
	"esrp/internal/cluster"
	"esrp/internal/core"
	"esrp/internal/dist"
	"esrp/internal/faultsim"
	"esrp/internal/hostobs"
	"esrp/internal/matgen"
	"esrp/internal/obs"
	"esrp/internal/precond"
	"esrp/internal/replay"
	"esrp/internal/sparse"
)

// Core solver types.
type (
	// Config describes one distributed solve; see core.Config. Beyond the
	// paper's single Failure event, Config.Failures takes a multi-event
	// timeline and Config.Spares bounds the replacement-node pool (recovery
	// falls back to the no-spare shrink once it is exhausted).
	Config = core.Config
	// Result is the outcome of a solve; Result.Events records every handled
	// failure event of a multi-failure timeline.
	Result = core.Result
	// FailureSpec marks the iteration and ranks of an injected node failure.
	FailureSpec = core.FailureSpec
	// RecoveryEvent is one handled failure event of a timeline.
	RecoveryEvent = core.RecoveryEvent
	// Strategy selects the resilience scheme.
	Strategy = core.Strategy
	// CostModel holds the simulated machine parameters.
	CostModel = cluster.CostModel
	// CSR is the sparse matrix type consumed by the solver.
	CSR = sparse.CSR
	// PrecondKind selects the preconditioner.
	PrecondKind = precond.Kind
	// KernelKind selects the local SpMV storage layout (Config.Kernel). All
	// kinds produce bitwise-identical trajectories; only host speed differs.
	KernelKind = sparse.KernelKind
)

// Resilience strategies.
const (
	// StrategyNone runs plain PCG; after a failure it can only restart
	// locally from the surviving iterand.
	StrategyNone = core.StrategyNone
	// StrategyESR stores redundant copies every iteration (T = 1).
	StrategyESR = core.StrategyESR
	// StrategyESRP stores redundant copies every T iterations (T > 2).
	StrategyESRP = core.StrategyESRP
	// StrategyIMCR checkpoints to buddy nodes every T iterations.
	StrategyIMCR = core.StrategyIMCR
)

// Preconditioner kinds.
const (
	// PrecondIdentity applies no preconditioning (plain CG).
	PrecondIdentity = precond.None
	// PrecondJacobi applies point Jacobi (diagonal) preconditioning.
	PrecondJacobi = precond.Jacobi
	// PrecondBlockJacobi applies non-overlapping block Jacobi precondition-
	// ing with node-local dense Cholesky blocks (the paper's choice).
	PrecondBlockJacobi = precond.BlockJacobi
	// PrecondIC0 applies node-local zero-fill incomplete Cholesky — the
	// stronger preconditioner the paper's conclusions call for; it remains
	// compatible with the exact state reconstruction.
	PrecondIC0 = precond.IC0
)

// SpMV kernel kinds (Config.Kernel).
const (
	// KernelAuto lets the Prepare-time planner pick the layout per row
	// block from its structure statistics (the default).
	KernelAuto = sparse.KernelAuto
	// KernelCSR forces the generic scalar CSR traversal.
	KernelCSR = sparse.KernelCSR
	// KernelSellC forces the SELL-C sliced-ELL layout.
	KernelSellC = sparse.KernelSellC
	// KernelBand forces the constant-band/stencil layout.
	KernelBand = sparse.KernelBand
)

// ParseKernel converts a kernel name ("auto", "csr", "sellc", "band").
func ParseKernel(s string) (KernelKind, error) { return sparse.ParseKernelKind(s) }

// ParsePrecond converts a preconditioner name ("none", "jacobi",
// "blockjacobi", "ic0", and the aliases "identity", "block-jacobi", "bj",
// "icc", "ichol").
func ParsePrecond(s string) (PrecondKind, error) { return precond.ParseKind(s) }

// CondenseKernels condenses Result.Kernels (per-node SpMV layout names)
// into a compact "name×count" display string.
func CondenseKernels(names []string) string { return core.CondenseKernels(names) }

// Data distribution (the block row partition of Section 2.2; internal/dist).
type (
	// Partition divides the global row range into contiguous per-node
	// blocks; all redundancy machinery is defined relative to it.
	Partition = dist.Partition
	// PartitionQuality reports per-node load, imbalance factor and SpMV
	// ghost-entry volume of a partition for one matrix.
	PartitionQuality = dist.Quality
)

// NewBlockPartition returns the uniform block row partition of m rows over
// n nodes — the paper's distribution.
func NewBlockPartition(m, n int) *Partition { return dist.NewBlockPartition(m, n) }

// NewBalancedPartition returns the contiguous partition minimizing the
// maximum per-node weight (Config.BalanceNNZ uses this internally with
// per-row cost weights).
func NewBalancedPartition(weights []float64, n int) (*Partition, error) {
	return dist.NewBalancedWeightPartition(weights, n)
}

// Solve runs one configured PCG solve on the simulated cluster.
func Solve(cfg Config) (*Result, error) { return core.Solve(cfg) }

// SolvePipelined runs the communication-hiding pipelined PCG variant
// (Ghysels & Vanroose; the solver the paper's related work [16] extends ESR
// to). It fuses the iteration's dot products into a single allreduce, which
// halves the synchronization points — the win shows directly in the modeled
// runtime when latency dominates. Supported strategies: StrategyNone (local
// restart on failure) and StrategyIMCR (full-state buddy checkpointing).
// StrategyESR / StrategyESRP (and so a finite Spares pool), NoSpareNodes and
// ResidualReplacementInterval > 0 are rejected with an error.
func SolvePipelined(cfg Config) (*Result, error) { return core.SolvePipelined(cfg) }

// ParseStrategy converts a strategy name ("esr", "esrp", "imcr", "none").
func ParseStrategy(s string) (Strategy, error) { return core.ParseStrategy(s) }

// Observability: simulated-clock tracing and metrics (see internal/obs and
// DESIGN.md § Observability).
type (
	// ObserveOptions opts a solve into span tracing and/or the
	// per-iteration metric series (Config.Observe). A nil Observe keeps the
	// instrumentation-free hot path: bit-identical results, zero overhead.
	ObserveOptions = obs.Options
	// Trace is a traced solve's observability artifact (Result.Trace):
	// per-rank span timelines on the simulated clock, recovery envelopes,
	// the iteration series, and the build stamp. Trace.WriteChrome exports
	// Chrome trace_event JSON viewable in Perfetto.
	Trace = obs.Trace
	// Span is one timed section of a rank's simulated-clock timeline.
	Span = obs.Span
	// SpanKind labels what a span measured (spmv halves, halo exchange,
	// collectives, checkpoint shipments, recovery sections, …).
	SpanKind = obs.Kind
	// IterPoint is one sample of the per-iteration metric series.
	IterPoint = obs.IterPoint
	// RecoveryStat condenses one failure event's recovery envelopes
	// (Trace.RecoveryStats).
	RecoveryStat = obs.RecoveryStat
	// BuildInfo is the build provenance stamp (Go version, VCS revision)
	// carried by traces and exports.
	BuildInfo = obs.BuildInfo
)

// Host observability: wall-clock telemetry of the real execution engine —
// the counterpart of the simulated-clock layer above (see internal/hostobs
// and DESIGN.md § Host observability).
type (
	// HostRecorder records a campaign's host-side execution: per-worker
	// cell timelines, affinity hit rate, shared barrier stats, and
	// Go-runtime phase samples (CampaignGrid.HostObs).
	HostRecorder = hostobs.CampaignRecorder
	// HostTelemetry is the aggregated post-run view of a HostRecorder.
	HostTelemetry = hostobs.CampaignTelemetry
	// HostTrace is the wall-clock Chrome trace of a campaign's host
	// workers; WriteChrome emits the same trace_event JSON schema as the
	// simulated-clock Trace.
	HostTrace = obs.HostTrace
)

// NewHostRecorder returns an empty campaign host recorder; RunCampaign
// initializes it when attached via CampaignGrid.HostObs.
func NewHostRecorder() *HostRecorder { return hostobs.NewCampaignRecorder() }

// BuildHostTrace converts a finished campaign's host recorder into the
// wall-clock worker trace, with cell spans labeled by grid coordinates.
func BuildHostTrace(rec *HostRecorder, rep *CampaignReport, build BuildInfo) *HostTrace {
	return campaign.BuildHostTrace(rec, rep, build)
}

// CurrentBuild reports the running binary's build provenance, read from the
// embedded debug build information.
func CurrentBuild() BuildInfo { return obs.CurrentBuild() }

// ValidateChromeTrace structurally checks Chrome trace_event JSON as emitted
// by Trace.WriteChrome (used by the CLI's self-check and the CI gate).
func ValidateChromeTrace(data []byte) error { return obs.ValidateChromeTrace(data) }

// DefaultCostModel returns the LogGP parameters loosely calibrated to the
// paper's VSC3 platform.
func DefaultCostModel() CostModel { return cluster.DefaultCostModel() }

// Replay engine (internal/replay): record one solve's abstract event
// schedule — every clock advance, point-to-point message, collective, and
// recovery section — then re-cost it under arbitrary machine parameters in
// O(events), without re-running any numeric work. Replayed under the
// recording model, a schedule reproduces the solve's SimTime, RecoveryTime,
// BytesSent and MsgsSent bit-for-bit.
type (
	// Schedule is a recorded solve's event schedule: per-rank program-order
	// event streams plus communicator-view memberships, in canonical order.
	// Serialize with Schedule.WriteBinary / Schedule.WriteJSON.
	Schedule = replay.Schedule
	// Replayed is the outcome of re-costing a schedule under one machine
	// model: the replayed SimTime / RecoveryTime / BytesSent / MsgsSent plus
	// per-rank clocks and per-event recovery envelopes.
	Replayed = replay.Replayed
	// ReplayEnvSpan is one replayed recovery envelope (failure event, start
	// and end on the replayed simulated clock).
	ReplayEnvSpan = replay.EnvSpan
	// CampaignMachine is one named machine model of a campaign's
	// machine-parameter sweep axis (CampaignGrid.Machines).
	CampaignMachine = campaign.MachinePoint
	// CampaignMachineCell is one (cell, machine) replay result of a swept
	// campaign (CampaignReport.MachineCells).
	CampaignMachineCell = campaign.MachineCell
)

// RecordSchedule runs one solve with schedule recording attached and returns
// both the result and the recorded schedule. Recording adds no simulated
// cost: the result is bit-identical to Solve(cfg)'s.
func RecordSchedule(cfg Config) (*Result, *Schedule, error) {
	return recordSchedule(cfg, core.Solve)
}

// RecordSchedulePipelined is RecordSchedule for the pipelined solver.
func RecordSchedulePipelined(cfg Config) (*Result, *Schedule, error) {
	return recordSchedule(cfg, core.SolvePipelined)
}

func recordSchedule(cfg Config, solve func(Config) (*Result, error)) (*Result, *Schedule, error) {
	rec := replay.NewRecorder()
	cfg.Record = rec
	res, err := solve(cfg)
	if err != nil {
		return nil, nil, err
	}
	return res, rec.Schedule(), nil
}

// Recost replays a recorded schedule under machine model m, running the
// identical LogGP clock arithmetic the cluster ran when recording. Safe for
// concurrent calls on one schedule.
func Recost(s *Schedule, m CostModel) (*Replayed, error) {
	return s.Recost(m)
}

// RecostAll replays a recorded schedule under every model in one walk of its
// events — what a campaign's machine sweep does per cell; element j equals
// Recost(s, ms[j]) bit-for-bit.
func RecostAll(s *Schedule, ms []CostModel) ([]*Replayed, error) {
	return s.RecostAll(ms)
}

// ReadScheduleBinary decodes a schedule written by Schedule.WriteBinary.
func ReadScheduleBinary(r io.Reader) (*Schedule, error) { return replay.ReadBinary(r) }

// ReadScheduleJSON decodes a schedule written by Schedule.WriteJSON.
func ReadScheduleJSON(r io.Reader) (*Schedule, error) { return replay.ReadJSON(r) }

// Persistent campaign cache (internal/ccache): a content-addressed store
// of per-cell results and recorded schedules, keyed by a digest of each
// cell's complete input with the machine model deliberately excluded —
// so one cold sweep serves exact re-runs from the result tier and any
// new machine point from the schedule tier via Recost.

type (
	// CampaignCache is an open cache directory (CampaignGrid.Cache). A
	// nil *CampaignCache is fully inert, so it can be threaded
	// unconditionally.
	CampaignCache = ccache.Cache
	// CacheMismatchPolicy selects how OpenCampaignCache treats a
	// directory stamped by a different build.
	CacheMismatchPolicy = ccache.MismatchPolicy
	// CacheStats snapshots a cache's raw I/O counters.
	CacheStats = ccache.IOStats
	// CampaignCacheCounters is the cache section of a HostRecorder's
	// telemetry: hit/miss classification plus I/O and corruption totals.
	CampaignCacheCounters = hostobs.CacheCounters
)

// Mismatch policies for OpenCampaignCache.
const (
	// CacheMismatchBypass leaves a foreign-build cache untouched and runs
	// without one (the returned cache is nil).
	CacheMismatchBypass = ccache.MismatchBypass
	// CacheMismatchRefresh discards a foreign-build cache's entries and
	// restamps it for this binary.
	CacheMismatchRefresh = ccache.MismatchRefresh
)

// OpenCampaignCache opens (creating if absent) a campaign cache stamped
// with this binary's build provenance. On a build mismatch it applies
// policy and returns a non-empty note the caller should surface — entries
// from different builds are never silently mixed.
func OpenCampaignCache(dir string, policy CacheMismatchPolicy) (*CampaignCache, string, error) {
	return ccache.Open(dir, obs.CurrentBuild(), policy)
}

// WriteScheduleFile writes one recorded schedule as a framed
// (length + CRC-32) file — the single on-disk schedule format, shared by
// the cache's schedule tier and the esrpcampaign -schedules export.
func WriteScheduleFile(path string, s *Schedule) error { return ccache.WriteScheduleFile(path, s) }

// ReadScheduleFile reads a schedule written by WriteScheduleFile (or a
// bare pre-cache Schedule.WriteBinary stream).
func ReadScheduleFile(path string) (*Schedule, error) { return ccache.ReadScheduleFile(path) }

// Matrix generators (synthetic analogs of the paper's test problems).

// Poisson2D returns the 5-point finite-difference Laplacian on an nx×ny grid.
func Poisson2D(nx, ny int) *CSR { return matgen.Poisson2D(nx, ny) }

// Poisson3D returns the 7-point Laplacian on an nx×ny×nz grid.
func Poisson3D(nx, ny, nz int) *CSR { return matgen.Poisson3D(nx, ny, nz) }

// EmiliaLike returns a banded 3-D 27-point stencil matrix with the sparsity
// character of the paper's Emilia_923 structural problem.
func EmiliaLike(nx, ny, nz int, seed int64) *CSR { return matgen.EmiliaLike(nx, ny, nz, seed) }

// AudikwLike returns a 3-D 27-point stencil with dof unknowns per vertex,
// with the denser block-coupled character of the paper's audikw_1 problem.
func AudikwLike(nx, ny, nz, dof int, seed int64) *CSR {
	return matgen.AudikwLike(nx, ny, nz, dof, seed)
}

// BandedSPD returns a random diagonally dominant banded SPD matrix.
func BandedSPD(n, bw int, seed int64) *CSR { return matgen.BandedSPD(n, bw, seed) }

// RHSOnes returns the all-ones right-hand side of length n.
func RHSOnes(n int) []float64 { return matgen.RHSOnes(n) }

// RHSForSolution returns b = A·x* for a deterministic random solution x*,
// so solves have a known ground truth.
func RHSForSolution(a *CSR, seed int64) (b, xstar []float64) {
	return matgen.RHSForSolution(a, seed)
}

// The paper's constellation (Tables 2–4, Figures 2–3), run as campaign grids.
type (
	// ExperimentSpec describes one matrix's sweep over checkpoint intervals
	// and redundancy counts.
	ExperimentSpec = campaign.PaperSpec
	// ExperimentReport holds the sweep's cells: the reference, and per
	// (strategy, T, φ) the failure-free run and one run per failure location.
	ExperimentReport = campaign.PaperReport
	// ExperimentCell is one (strategy, T, φ) setting of a report.
	ExperimentCell = campaign.PaperCell
	// Table1Row is one matrix-inventory entry.
	Table1Row = campaign.Table1Row
)

// RunExperiment executes the full constellation for the spec; any cell that
// fails to run is an error.
func RunExperiment(spec ExperimentSpec) (*ExperimentReport, error) { return campaign.RunPaper(spec) }

// RenderTable1 prints a matrix inventory in the layout of Table 1.
func RenderTable1(rows []Table1Row) string { return campaign.RenderTable1(rows) }

// RenderOverheadTable prints a report in the layout of Tables 2–3.
func RenderOverheadTable(r *ExperimentReport) string { return campaign.RenderOverheadTable(r) }

// RenderDriftTable prints residual-drift statistics in the layout of Table 4.
func RenderDriftTable(reports []*ExperimentReport) string { return campaign.RenderDriftTable(reports) }

// RenderFigure prints the data series of Figures 2–3; failureFree selects
// subfigure (a), otherwise (b).
func RenderFigure(r *ExperimentReport, failureFree bool) string {
	return campaign.RenderFigure(r, failureFree)
}

// RenderFigureASCII draws the Figures 2–3 layout as a log-scale ASCII
// scatter, mirroring the paper's plots.
func RenderFigureASCII(r *ExperimentReport, failureFree bool) string {
	return campaign.RenderFigureASCII(r, failureFree)
}

// Failure scenarios and experiment campaigns (internal/faultsim and
// internal/campaign): stochastic multi-failure processes compiled into event
// timelines, and concurrent sweeps of whole experiment grids.
type (
	// FailureScenario describes a seeded failure process — fixed schedule,
	// exponential (Poisson), or Weibull per-node inter-arrivals, optionally
	// with correlated group failures — compiled into a Config.Failures
	// timeline.
	FailureScenario = faultsim.Scenario
	// ScenarioModel selects the scenario's inter-arrival process.
	ScenarioModel = faultsim.Model
	// CampaignGrid describes one experiment campaign: the sweep axes
	// (strategy × T × φ × matrix × node count × seed), the failure process,
	// and shared solver settings.
	CampaignGrid = campaign.Grid
	// CampaignMatrix names one SPD system of a campaign grid.
	CampaignMatrix = campaign.MatrixSpec
	// CampaignReport is a campaign's full output: per-cell results plus
	// median/percentile aggregates over seeds.
	CampaignReport = campaign.Report
	// CampaignCell is one grid point's condensed result.
	CampaignCell = campaign.Cell
	// CampaignAggregate condenses one grid group over its seeds.
	CampaignAggregate = campaign.Aggregate
)

// Scenario models.
const (
	// ScenarioFixed replays an explicit schedule.
	ScenarioFixed = faultsim.ModelFixed
	// ScenarioExponential draws per-node Poisson failure processes.
	ScenarioExponential = faultsim.ModelExponential
	// ScenarioWeibull draws per-node Weibull inter-arrivals (clustered or
	// wear-out failures, by shape).
	ScenarioWeibull = faultsim.ModelWeibull
)

// CompileScenario turns a failure scenario into the ordered event timeline
// Config.Failures consumes. Deterministic: the same scenario (including
// seed) always compiles to the same events.
func CompileScenario(s FailureScenario) ([]FailureSpec, error) { return s.Compile() }

// ParseScenarioModel converts a model name ("fixed", "exp", "weibull").
func ParseScenarioModel(s string) (ScenarioModel, error) { return faultsim.ParseModel(s) }

// RunCampaign executes a whole experiment grid concurrently across host
// cores — each cell an independent simulated cluster — and aggregates the
// per-seed results. Output is bitwise reproducible for a fixed grid.
func RunCampaign(g CampaignGrid) (*CampaignReport, error) { return campaign.Run(g) }

// RenderCampaignTable prints a campaign's aggregate table.
func RenderCampaignTable(r *CampaignReport) string { return campaign.Render(r) }

// CampaignSummary prints a compact campaign headline.
func CampaignSummary(r *CampaignReport) string { return campaign.Summary(r) }

// Checkpoint-interval planning (the Young/Daly models the paper cites).

// IntervalAdvice holds the optimal-checkpoint-interval estimates of Young's
// and Daly's models for one strategy's measured costs.
type IntervalAdvice = ckptmodel.Advise

// PlanCheckpointInterval evaluates Young's √(2δM) estimate and Daly's
// higher-order refinement for a per-storage-stage cost delta, failure-free
// per-iteration time iterTime, and machine mean-time-between-failures mtbf
// (all in seconds — simulated or real, as long as they are consistent).
func PlanCheckpointInterval(delta, iterTime, mtbf float64) (IntervalAdvice, error) {
	return ckptmodel.Plan(delta, iterTime, mtbf)
}
