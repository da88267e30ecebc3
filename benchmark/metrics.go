package main

import (
	"sort"
	"time"
)

// metricDef declares one reported metric. The lists below are the single
// source of the names: BENCHMARK.json repeats them and the smoke test holds
// the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are the figures a user of the system waits for, measured with
// tracing off. Every workload reports every one of them, never as 0; which
// of them a workload is judged on is workload.judged. The three wall-clock
// bounds are the widest the driver contract allows because its acceptance
// rule is spread ≤ bound and the reference box does not repeat a 10 s run
// more closely (README, "Run-to-run spread"); the allocation count does.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"host_ns_per_iter", "ns", "lower", 0.25},
	{"cells_per_s", "1/s", "higher", 0.25},
	{"allocs_per_pass", "count", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer figures of the traced run, in the order the
// README's layer table lists them. A workload that does not reach a layer
// reports 0 for it.
var perLayer = []metricDef{
	{"sparse.mul_s", "s", "lower", 0},
	{"sparse.mul_gflops_computed", "Gflop/s", "higher", 0},
	{"sparse.bytes_per_iter_computed", "B", "lower", 0},
	{"vec.fused_s", "s", "lower", 0},
	{"vec.gbytes_per_s_computed", "GB/s", "higher", 0},
	{"precond.apply_s", "s", "lower", 0},
	{"precond.build_s", "s", "lower", 0},
	{"sparse.local_build_s", "s", "lower", 0},
	{"aspmv.plan_s", "s", "lower", 0},
	{"core.prepare_s", "s", "lower", 0},
	{"matgen.generate_s", "s", "lower", 0},
	{"cluster.allreduce_s", "s", "lower", 0},
	{"cluster.allreduce_ns_per_round", "ns", "lower", 0},
	{"cluster.run_empty_s", "s", "lower", 0},
	{"cluster.barrier_wait_share", "share", "lower", 0},
	{"cluster.park_share", "share", "lower", 0},
	{"cluster.msgs", "count", "lower", 0},
	{"cluster.bytes", "B", "lower", 0},
	{"aspmv.exchange_s", "s", "lower", 0},
	{"aspmv.halo_bytes", "B", "lower", 0},
	{"aspmv.extra_traffic_ratio", "ratio", "lower", 0},
	{"core.solve_s", "s", "lower", 0},
	{"core.steps", "count", "lower", 0},
	{"core.iters", "count", "lower", 0},
	{"core.max_node_mb", "MB", "lower", 0},
	{"core.unattributed_share", "share", "lower", 0},
	{"core.recovery_s", "s", "lower", 0},
	{"core.recovery_share", "share", "lower", 0},
	{"core.wasted_iters", "count", "lower", 0},
	{"core.recoveries", "count", "lower", 0},
	{"core.sim_recovery_s", "s", "lower", 0},
	{"core.sim_compute_share", "share", "lower", 0},
	{"core.sim_comm_share", "share", "lower", 0},
	{"replay.record_overhead_share", "share", "lower", 0},
	{"replay.events", "count", "lower", 0},
	{"replay.encode_s", "s", "lower", 0},
	{"replay.schedule_mb", "MB", "lower", 0},
	{"replay.decode_s", "s", "lower", 0},
	{"replay.recost_s", "s", "lower", 0},
	{"replay.recost_ns_per_event", "ns", "lower", 0},
	{"ccache.put_result_s", "s", "lower", 0},
	{"ccache.put_schedule_s", "s", "lower", 0},
	{"ccache.bytes_written", "B", "lower", 0},
	{"ccache.open_s", "s", "lower", 0},
	{"ccache.digest_s", "s", "lower", 0},
	{"ccache.key_s", "s", "lower", 0},
	{"ccache.get_result_s", "s", "lower", 0},
	{"ccache.result_hits", "count", "higher", 0},
	{"ccache.misses", "count", "lower", 0},
	{"ccache.hit_ratio", "ratio", "higher", 0},
	{"ccache.bytes_read", "B", "lower", 0},
	{"ccache.corrupt", "count", "lower", 0},
	{"ccache.get_schedule_s", "s", "lower", 0},
	{"ccache.schedule_hits", "count", "higher", 0},
	{"faultsim.compile_s", "s", "lower", 0},
	{"faultsim.events", "count", "lower", 0},
	{"campaign.run_s", "s", "lower", 0},
	{"campaign.encode_s", "s", "lower", 0},
	{"campaign.report_mb", "MB", "lower", 0},
	{"campaign.cells", "count", "higher", 0},
	{"campaign.steals", "count", "lower", 0},
	{"campaign.worker_busy_share", "share", "higher", 0},
	{"campaign.affinity_hit_ratio", "ratio", "higher", 0},
	{"campaign.other_share", "share", "lower", 0},
	{"process.peak_rss_mb", "MB", "lower", 0},
	{"process.alloc_mb_per_pass", "MB", "lower", 0},
	{"process.gc_pause_ms", "ms", "lower", 0},
	{"process.trace_overhead_share", "share", "lower", 0},
	// The two figures the contract cannot carry as end-to-end metrics (one
	// is always 0, the other depends on the seed and may not move at all):
	// both are enforced through the run's `correct` and `failed` fields.
	{"sim_time_s", "s", "lower", 0},
	{"failed_share", "share", "lower", 0},
}

// layerMetrics accumulates per-layer values by metric name.
type layerMetrics map[string]float64

func (m layerMetrics) add(name string, v float64) { m[name] += v }

func (m layerMetrics) addDur(name string, d time.Duration) { m[name] += d.Seconds() }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sample summarises the timed passes of one metric.
type sample struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(xs []float64) sample {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sample{Median: quantile(s, 0.5), Min: s[0], Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// quantile interpolates linearly in a sorted, non-empty slice.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	f := pos - float64(i)
	return sorted[i]*(1-f) + sorted[i+1]*f
}

func median(xs []float64) float64 { return summarize(xs).Median }

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}
