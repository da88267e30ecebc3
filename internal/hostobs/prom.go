package hostobs

import (
	"fmt"
	"io"
)

// WritePrometheus renders the telemetry in Prometheus text exposition
// format. cmd/esrpcampaign appends it to the Report.WriteMetrics textfile
// so the simulated-clock campaign counters and the host-engine counters
// land in one scrape target. Output is deterministic for a given
// telemetry snapshot.
func (t *CampaignTelemetry) WritePrometheus(w io.Writer) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}

	p("# HELP esrp_host_wall_seconds Wall-clock duration of the campaign run.\n")
	p("# TYPE esrp_host_wall_seconds gauge\n")
	p("esrp_host_wall_seconds %g\n", float64(t.WallNs)/1e9)

	p("# HELP esrp_host_cells_done_total Cells solved by the host engine.\n")
	p("# TYPE esrp_host_cells_done_total counter\n")
	p("esrp_host_cells_done_total %d\n", t.CellsDone)

	p("# HELP esrp_host_worker_busy_seconds Wall-clock time each worker spent solving cells.\n")
	p("# TYPE esrp_host_worker_busy_seconds gauge\n")
	for i, wk := range t.Workers {
		p("esrp_host_worker_busy_seconds{worker=\"%d\"} %g\n", i, float64(wk.BusyNs)/1e9)
	}
	p("# HELP esrp_host_worker_cells Cells solved per worker.\n")
	p("# TYPE esrp_host_worker_cells gauge\n")
	for i, wk := range t.Workers {
		p("esrp_host_worker_cells{worker=\"%d\"} %d\n", i, wk.Cells)
	}

	p("# HELP esrp_host_affinity_hit_ratio Fraction of cells reusing the previous cell's Prepared context.\n")
	p("# TYPE esrp_host_affinity_hit_ratio gauge\n")
	p("esrp_host_affinity_hit_ratio %g\n", t.AffinityHitRate())

	p("# HELP esrp_host_barrier_wait_seconds_total Barrier wait time per member and regime.\n")
	p("# TYPE esrp_host_barrier_wait_seconds_total counter\n")
	for m := range t.Barrier.Members {
		for r := Regime(0); r < numRegimes; r++ {
			rw := t.Barrier.Members[m].Wait[r]
			if rw.Count == 0 {
				continue
			}
			p("esrp_host_barrier_wait_seconds_total{member=\"%d\",regime=%q} %g\n",
				m, RegimeName(r), float64(rw.SumNs)/1e9)
		}
	}
	p("# HELP esrp_host_barrier_waits_total Barrier waits per member and regime.\n")
	p("# TYPE esrp_host_barrier_waits_total counter\n")
	for m := range t.Barrier.Members {
		for r := Regime(0); r < numRegimes; r++ {
			rw := t.Barrier.Members[m].Wait[r]
			if rw.Count == 0 {
				continue
			}
			p("esrp_host_barrier_waits_total{member=\"%d\",regime=%q} %d\n",
				m, RegimeName(r), rw.Count)
		}
	}
	p("# HELP esrp_host_barrier_mean_arrival Mean arrival position per member (0 = always first).\n")
	p("# TYPE esrp_host_barrier_mean_arrival gauge\n")
	for m := range t.Barrier.Members {
		if t.Barrier.Members[m].Phases == 0 {
			continue
		}
		p("esrp_host_barrier_mean_arrival{member=\"%d\"} %g\n", m, t.Barrier.Members[m].MeanArrival)
	}
	p("# HELP esrp_host_barrier_aborts_total Barrier abort sweeps.\n")
	p("# TYPE esrp_host_barrier_aborts_total counter\n")
	p("esrp_host_barrier_aborts_total %d\n", t.Barrier.Aborts)

	if c := t.Cache; c != nil {
		p("# HELP esrp_host_cache_result_hits_total Cells served whole from the campaign cache's result tier.\n")
		p("# TYPE esrp_host_cache_result_hits_total counter\n")
		p("esrp_host_cache_result_hits_total %d\n", c.ResultHits)
		p("# HELP esrp_host_cache_schedule_hits_total Cells served by re-costing a cached event schedule.\n")
		p("# TYPE esrp_host_cache_schedule_hits_total counter\n")
		p("esrp_host_cache_schedule_hits_total %d\n", c.ScheduleHits)
		p("# HELP esrp_host_cache_misses_total Cells that had to solve.\n")
		p("# TYPE esrp_host_cache_misses_total counter\n")
		p("esrp_host_cache_misses_total %d\n", c.Misses)
		p("# HELP esrp_host_cache_read_bytes_total Framed bytes of validated cache entries read.\n")
		p("# TYPE esrp_host_cache_read_bytes_total counter\n")
		p("esrp_host_cache_read_bytes_total %d\n", c.BytesRead)
		p("# HELP esrp_host_cache_written_bytes_total Framed bytes of cache entries written.\n")
		p("# TYPE esrp_host_cache_written_bytes_total counter\n")
		p("esrp_host_cache_written_bytes_total %d\n", c.BytesWritten)
		p("# HELP esrp_host_cache_corrupt_total Cache entries rejected by frame validation or decoding.\n")
		p("# TYPE esrp_host_cache_corrupt_total counter\n")
		p("esrp_host_cache_corrupt_total %d\n", c.Corrupt)
	}

	p("# HELP esrp_host_phase_heap_bytes Heap in use at each campaign phase boundary.\n")
	p("# TYPE esrp_host_phase_heap_bytes gauge\n")
	for _, ph := range t.Phases {
		p("esrp_host_phase_heap_bytes{phase=%q} %d\n", ph.Phase, ph.HeapBytes)
	}
	p("# HELP esrp_host_phase_gc_pause_seconds Cumulative GC pause at each phase boundary.\n")
	p("# TYPE esrp_host_phase_gc_pause_seconds gauge\n")
	for _, ph := range t.Phases {
		p("esrp_host_phase_gc_pause_seconds{phase=%q} %g\n", ph.Phase, float64(ph.GCPauseNs)/1e9)
	}
	p("# HELP esrp_host_phase_goroutines Live goroutines at each phase boundary.\n")
	p("# TYPE esrp_host_phase_goroutines gauge\n")
	for _, ph := range t.Phases {
		p("esrp_host_phase_goroutines{phase=%q} %d\n", ph.Phase, ph.Goroutines)
	}
	p("# HELP esrp_host_phase_sched_latency_p99_seconds Approximate p99 goroutine scheduling latency at each phase boundary.\n")
	p("# TYPE esrp_host_phase_sched_latency_p99_seconds gauge\n")
	for _, ph := range t.Phases {
		p("esrp_host_phase_sched_latency_p99_seconds{phase=%q} %g\n", ph.Phase, ph.SchedLatencyP99)
	}
	return err
}
