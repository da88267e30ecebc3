// Package hostobs is the observability layer of the *host* execution
// engine — the mirror image of internal/obs. Where obs records what the
// simulated machine did on the deterministic LogGP clock, hostobs records
// what the real machine underneath did on the wall clock: how long ranks
// waited at collectives that were not yet complete, how busy the campaign
// workers were and how often a worker's next cell reused its previous
// cell's solve context, and what the Go runtime (heap, GC, scheduler) was
// doing while a campaign ran.
//
// The layer follows the zero-overhead-when-off discipline of
// replay.Recorder: every hot-path entry point is a method on a handle that
// nil-checks its receiver, so a solve or campaign without a recorder
// attached performs no clock reads, no atomics and no allocations — the
// zero-alloc gates and byte-identity contracts of the engine hold
// unchanged. With recording enabled the hot-path cost is a few padded
// atomic increments (histograms are fixed-size log-bucketed arrays; no
// allocation ever happens on a collective wait), and the
// recorded data is exported after the run: as a Chrome trace_event JSON of
// host worker timelines (obs.HostTrace), as Prometheus textfile metrics
// appended to the campaign snapshot, and as telemetry that benchmark/'s
// traced runs condense into per-layer rows.
package hostobs

import (
	"math/bits"
	"sync/atomic"
)

// histBuckets is the bucket count of the log-scaled wait histograms:
// bucket k holds samples with bits.Len64(ns) == k, i.e. waits in
// [2^(k-1), 2^k) nanoseconds; the top bucket absorbs everything from
// ~2.1 s (2^31 ns) up, far beyond any sane barrier wait.
const histBuckets = 32

// Hist is a fixed-size log-bucketed nanosecond histogram maintained with
// atomics — safe for concurrent observers, allocation-free after creation.
type Hist struct {
	count   atomic.Int64
	sumNs   atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one nanosecond sample.
func (h *Hist) Observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	b := bits.Len64(uint64(ns))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.count.Add(1)
	h.sumNs.Add(ns)
	h.buckets[b].Add(1)
}

// Count returns the number of samples observed.
func (h *Hist) Count() int64 { return h.count.Load() }

// SumNs returns the total nanoseconds observed.
func (h *Hist) SumNs() int64 { return h.sumNs.Load() }

// Snapshot copies the bucket counts (index k = waits in [2^(k-1), 2^k) ns).
func (h *Hist) Snapshot() [histBuckets]int64 {
	var out [histBuckets]int64
	for i := range out {
		out[i] = h.buckets[i].Load()
	}
	return out
}
