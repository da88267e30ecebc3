package hostobs

import (
	"runtime"
	"runtime/metrics"
)

// PhaseSample is one Go-runtime snapshot taken at a campaign phase
// boundary (start of run, contexts prepared, all cells done). Deltas
// between consecutive samples attribute heap growth and GC pauses to a
// phase; the absolute values feed the Prometheus textfile.
type PhaseSample struct {
	Phase           string  `json:"phase"`
	AtNs            int64   `json:"at_ns"` // recorder clock at the sample
	HeapBytes       uint64  `json:"heap_bytes"`
	GCPauseNs       uint64  `json:"gc_pause_ns"` // cumulative since process start
	NumGC           uint32  `json:"num_gc"`
	Goroutines      int     `json:"goroutines"`
	SchedLatencyP99 float64 `json:"sched_latency_p99_s"` // seconds; -1 if unavailable
}

// schedLatencySample reads /sched/latencies:seconds and returns its
// approximate p99 in seconds, or -1 when the runtime does not publish it.
func schedLatencySample() float64 {
	samples := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(samples)
	if samples[0].Value.Kind() != metrics.KindFloat64Histogram {
		return -1
	}
	h := samples[0].Value.Float64Histogram()
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(float64(total) * 0.99)
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			// Buckets[i+1] is the bucket's upper bound; the last bucket's
			// bound can be +Inf — report its finite lower bound instead.
			up := h.Buckets[i+1]
			if up > h.Buckets[len(h.Buckets)-2] {
				up = h.Buckets[i]
			}
			return up
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// SamplePhase snapshots the Go runtime under the given phase label.
// No-op on a nil recorder. ReadMemStats stops the world briefly, so this
// belongs at phase boundaries, never inside worker loops.
func (r *CampaignRecorder) SamplePhase(phase string) {
	if r == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := PhaseSample{
		Phase:           phase,
		AtNs:            r.WallNs(),
		HeapBytes:       ms.HeapAlloc,
		GCPauseNs:       ms.PauseTotalNs,
		NumGC:           ms.NumGC,
		Goroutines:      runtime.NumGoroutine(),
		SchedLatencyP99: schedLatencySample(),
	}
	r.phaseMu.Lock()
	r.phases = append(r.phases, s)
	r.phaseMu.Unlock()
}

// PhaseSamples copies the samples taken so far (nil on a nil recorder).
func (r *CampaignRecorder) PhaseSamples() []PhaseSample {
	if r == nil {
		return nil
	}
	r.phaseMu.Lock()
	defer r.phaseMu.Unlock()
	return append([]PhaseSample(nil), r.phases...)
}
