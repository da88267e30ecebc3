package hostobs

import (
	"sync"
	"sync/atomic"
	"time"
)

// workerSpan is one solved cell on a worker's wall-clock timeline. Spans
// are appended by the owning worker goroutine only (single writer) and read
// after the campaign's completion barrier, so they need no locking.
type workerSpan struct {
	startNs  int64
	endNs    int64
	index    int  // cell index
	affinity bool // cell reused the previous cell's Prepared context
}

// WorkerLog is one campaign worker's single-writer telemetry. All methods
// are nil-safe: campaign code unconditionally calls through the handle and
// a disabled recorder costs one nil check per call — in particular Clock
// returns 0 without reading the wall clock.
type WorkerLog struct {
	rec          *CampaignRecorder
	id           int
	spans        []workerSpan
	cells        int64
	busyNs       int64
	affinityHits int64
}

// Clock returns nanoseconds since the campaign recorder started, or 0 on
// a nil handle. Worker hot paths bracket work with two Clock calls; when
// telemetry is off both return 0 and the span recording no-ops.
func (w *WorkerLog) Clock() int64 {
	if w == nil {
		return 0
	}
	return int64(time.Since(w.rec.start))
}

// Cell records one solved cell spanning [t0, now] on this worker's
// timeline. affinity marks a cell that reused the previous cell's
// Prepared context on this worker.
func (w *WorkerLog) Cell(t0 int64, index int, affinity bool) {
	if w == nil {
		return
	}
	end := w.Clock()
	w.spans = append(w.spans, workerSpan{startNs: t0, endNs: end, index: index, affinity: affinity})
	w.cells++
	w.busyNs += end - t0
	if affinity {
		w.affinityHits++
	}
	w.rec.liveWorkerCells[w.id].Add(1)
}

// CampaignRecorder collects host-side telemetry for one campaign run:
// per-worker timelines, the shared barrier stats handed to every cell's
// solve, and runtime phase samples. A nil recorder is fully inert — every
// method (and every WorkerLog it hands out) nil-checks, so campaign output
// and allocation behaviour with telemetry off are bit-identical to an
// unbuilt recorder.
type CampaignRecorder struct {
	start      time.Time
	totalCells int
	workers    []WorkerLog
	barrier    *BarrierStats

	// liveWorkerCells mirrors each worker's completed-cell count with an
	// atomic so live meters can read per-worker progress while the
	// single-writer WorkerLog fields stay lock-free.
	liveWorkerCells []atomic.Int64

	// Cache counters (campaign cache runs only): hit/miss classification
	// is counted live from worker goroutines; the raw I/O figures are set
	// once by the engine after the workers join. cacheOn gates the
	// telemetry section so cache-less runs emit no cache metrics at all.
	cacheResultHits   atomic.Int64
	cacheScheduleHits atomic.Int64
	cacheMisses       atomic.Int64
	cacheOn           atomic.Bool
	cacheBytesRead    int64
	cacheBytesWritten int64
	cacheCorrupt      int64

	phaseMu sync.Mutex
	phases  []PhaseSample
}

// NewCampaignRecorder returns an empty recorder; Begin sizes it.
func NewCampaignRecorder() *CampaignRecorder { return &CampaignRecorder{} }

// Begin starts the wall clock and sizes per-worker logs and the shared
// barrier stats (maxNodes = the largest Nodes value in the grid, so one
// BarrierStats serves every cell's cluster).
func (r *CampaignRecorder) Begin(workers, totalCells, maxNodes int) {
	if r == nil {
		return
	}
	r.start = time.Now()
	r.totalCells = totalCells
	r.workers = make([]WorkerLog, workers)
	for i := range r.workers {
		r.workers[i].rec = r
		r.workers[i].id = i
	}
	r.liveWorkerCells = make([]atomic.Int64, workers)
	r.barrier = NewBarrierStats(maxNodes)
}

// Worker returns worker w's log handle (nil on a nil recorder), so worker
// loops hold one pointer and never re-index.
func (r *CampaignRecorder) Worker(w int) *WorkerLog {
	if r == nil {
		return nil
	}
	return &r.workers[w]
}

// BarrierStats returns the shared per-solve barrier stats (nil when the
// recorder is nil or Begin has not run).
func (r *CampaignRecorder) BarrierStats() *BarrierStats {
	if r == nil {
		return nil
	}
	return r.barrier
}

// LiveWorkerCells copies each worker's completed-cell count so far — safe
// concurrently, for live meters (nil on a nil recorder).
func (r *CampaignRecorder) LiveWorkerCells() []int64 {
	if r == nil {
		return nil
	}
	out := make([]int64, len(r.liveWorkerCells))
	for i := range out {
		out[i] = r.liveWorkerCells[i].Load()
	}
	return out
}

// CacheResultHit counts one cell served whole from the cache's result
// tier (no solve, no re-cost). Nil-safe; called from worker goroutines.
func (r *CampaignRecorder) CacheResultHit() {
	if r == nil {
		return
	}
	r.cacheResultHits.Add(1)
}

// CacheScheduleHit counts one cell served from the schedule tier: the
// machine-independent result fields came from the cache and the simulated
// times from an O(events) re-cost of the stored schedule.
func (r *CampaignRecorder) CacheScheduleHit() {
	if r == nil {
		return
	}
	r.cacheScheduleHits.Add(1)
}

// CacheMiss counts one cell that had to solve (entry absent, corrupt, or
// not coverable by the stored tiers).
func (r *CampaignRecorder) CacheMiss() {
	if r == nil {
		return
	}
	r.cacheMisses.Add(1)
}

// SetCacheIO records the cache's raw I/O totals and marks the run as
// cache-backed (the gate for the telemetry's cache section). The engine
// calls it once after the workers join.
func (r *CampaignRecorder) SetCacheIO(bytesRead, bytesWritten, corrupt int64) {
	if r == nil {
		return
	}
	r.cacheBytesRead = bytesRead
	r.cacheBytesWritten = bytesWritten
	r.cacheCorrupt = corrupt
	r.cacheOn.Store(true)
}

// LiveCacheHits returns the hit/miss counts so far — safe concurrently,
// for progress meters (zeros on nil).
func (r *CampaignRecorder) LiveCacheHits() (resultHits, scheduleHits, misses int64) {
	if r == nil {
		return 0, 0, 0
	}
	return r.cacheResultHits.Load(), r.cacheScheduleHits.Load(), r.cacheMisses.Load()
}

// WallNs returns nanoseconds since Begin (0 on nil).
func (r *CampaignRecorder) WallNs() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.start))
}

// WorkerTelemetry is the aggregated per-worker view.
type WorkerTelemetry struct {
	Cells        int64
	BusyNs       int64
	AffinityHits int64
}

// CacheCounters is the campaign-cache section of the telemetry: how each
// cell was satisfied (result tier, schedule tier, or a real solve) and
// the store's raw I/O totals.
type CacheCounters struct {
	ResultHits   int64 `json:"result_hits"`
	ScheduleHits int64 `json:"schedule_hits"`
	Misses       int64 `json:"misses"`
	BytesRead    int64 `json:"bytes_read"`
	BytesWritten int64 `json:"bytes_written"`
	Corrupt      int64 `json:"corrupt"`
}

// CampaignTelemetry is the post-run aggregate used by the Prometheus
// writer, the bench columns, and tests. Read it only after the campaign's
// workers have joined — worker fields are single-writer during the run.
type CampaignTelemetry struct {
	WallNs        int64
	TotalCells    int
	Workers       []WorkerTelemetry
	CellsDone     int64
	BusyNs        int64
	AffinityHits  int64
	Barrier       BarrierSnapshot
	BarrierWaitNs int64
	Phases        []PhaseSample

	// Steals is always 0: workers claim cells off one shared cursor and
	// never take work from each other. It stays because benchmark/ still
	// reports it as campaign.steals.
	Steals int64

	// Cache is non-nil only for cache-backed runs (SetCacheIO marks them).
	Cache *CacheCounters
}

// Telemetry aggregates the recorder (zero value on nil).
func (r *CampaignRecorder) Telemetry() CampaignTelemetry {
	if r == nil {
		return CampaignTelemetry{}
	}
	t := CampaignTelemetry{
		WallNs:        r.WallNs(),
		TotalCells:    r.totalCells,
		Workers:       make([]WorkerTelemetry, len(r.workers)),
		Barrier:       r.barrier.Snapshot(),
		BarrierWaitNs: r.barrier.TotalWaitNs(),
		Phases:        r.PhaseSamples(),
	}
	if r.cacheOn.Load() {
		t.Cache = &CacheCounters{
			ResultHits:   r.cacheResultHits.Load(),
			ScheduleHits: r.cacheScheduleHits.Load(),
			Misses:       r.cacheMisses.Load(),
			BytesRead:    r.cacheBytesRead,
			BytesWritten: r.cacheBytesWritten,
			Corrupt:      r.cacheCorrupt,
		}
	}
	for i := range r.workers {
		w := &r.workers[i]
		t.Workers[i] = WorkerTelemetry{
			Cells:        w.cells,
			BusyNs:       w.busyNs,
			AffinityHits: w.affinityHits,
		}
		t.CellsDone += w.cells
		t.BusyNs += w.busyNs
		t.AffinityHits += w.affinityHits
	}
	return t
}

// AffinityHitRate is the fraction of cells that reused the previous
// cell's Prepared context on their worker.
func (t *CampaignTelemetry) AffinityHitRate() float64 {
	if t.CellsDone == 0 {
		return 0
	}
	return float64(t.AffinityHits) / float64(t.CellsDone)
}
