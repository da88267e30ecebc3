package hostobs

import (
	"strings"
	"testing"

	"esrp/internal/obs"
)

func TestHistBuckets(t *testing.T) {
	var h Hist
	cases := []struct {
		ns     int64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {1023, 10}, {1024, 11},
		{-5, 0},                   // clamped
		{int64(1) << 40, 31},      // beyond the top bucket's lower bound
		{int64(1)<<62 + 1000, 31}, // extreme values stay in range
	}
	for _, c := range cases {
		h.Observe(c.ns)
	}
	snap := h.Snapshot()
	counts := make(map[int]int64)
	for k, n := range snap {
		if n > 0 {
			counts[k] = n
		}
	}
	for _, c := range cases {
		if counts[c.bucket] == 0 {
			t.Errorf("sample %d ns landed outside expected bucket %d (snapshot %v)", c.ns, c.bucket, counts)
		}
	}
	if h.Count() != int64(len(cases)) {
		t.Errorf("count %d, want %d", h.Count(), len(cases))
	}
	var sum int64
	for _, n := range snap {
		sum += n
	}
	if sum != h.Count() {
		t.Errorf("bucket sum %d != count %d", sum, h.Count())
	}
	// Negative samples clamp to zero, so the sum only counts the rest.
	if h.SumNs() <= 0 {
		t.Errorf("sum %d, want positive", h.SumNs())
	}
}

// TestNilHandlesAreInert pins the zero-overhead-when-off discipline: every
// recording entry point must be callable through nil handles.
func TestNilHandlesAreInert(t *testing.T) {
	var s *BarrierStats
	s.Arrive(0, 0)
	s.Wait(0, RegimePark, 100)
	s.Release(0)
	s.Abort()
	if s.Cap() != 0 || s.Snapshot().Aborts != 0 || s.TotalWaitNs() != 0 {
		t.Error("nil BarrierStats reported non-zero state")
	}
	if snap := s.Snapshot(); len(snap.Members) != 0 {
		t.Error("nil BarrierStats snapshot has members")
	}

	var r *CampaignRecorder
	r.Begin(4, 100, 8)
	r.SamplePhase("x")
	r.ShardLayout([]int{1, 2})
	if r.Worker(0) != nil {
		t.Error("nil recorder handed out a non-nil worker log")
	}
	if r.LiveSteals() != 0 || r.WallNs() != 0 {
		t.Error("nil recorder reported non-zero live state")
	}
	if r.LiveWorkerCells() != nil || r.PhaseSamples() != nil {
		t.Error("nil recorder returned non-nil slices")
	}
	if tel := r.Telemetry(); tel.CellsDone != 0 || len(tel.Workers) != 0 {
		t.Error("nil recorder telemetry non-zero")
	}
	if r.BuildTrace("p", obs.BuildInfo{}, nil) != nil {
		t.Error("nil recorder built a trace")
	}

	var w *WorkerLog
	if w.Clock() != 0 {
		t.Error("nil worker log read the clock")
	}
	w.Cell(0, 3, true)
	w.StealAttempt()
	w.Steal(0, 5)
}

func TestBarrierStatsRecording(t *testing.T) {
	s := NewBarrierStats(3)
	if s.Cap() != 3 {
		t.Fatalf("cap %d, want 3", s.Cap())
	}
	s.Arrive(0, 0)
	s.Arrive(1, 1)
	s.Arrive(2, 2)
	s.Arrive(2, 0) // next phase: member 2 first
	s.Wait(0, RegimePark, 100)
	s.Wait(0, RegimePark, 1000)
	s.Release(2)
	s.Abort()

	snap := s.Snapshot()
	if snap.Aborts != 1 {
		t.Errorf("aborts %d, want 1", snap.Aborts)
	}
	if got := snap.Members[0].Wait[RegimePark].SumNs; got != 1100 {
		t.Errorf("member 0 wait sum %d, want 1100", got)
	}
	if got := snap.Members[0].Wait[RegimePark].Count; got != 2 {
		t.Errorf("member 0 wait count %d, want 2", got)
	}
	if got := s.TotalWaitNs(); got != 1100 {
		t.Errorf("total wait %d, want 1100", got)
	}
	if snap.Members[2].Releases != 1 {
		t.Errorf("member 2 releases %d, want 1", snap.Members[2].Releases)
	}
	// Member 2 arrived last (position 2) then first (position 0): mean 1.
	if got := snap.Members[2].MeanArrival; got != 1 {
		t.Errorf("member 2 mean arrival %g, want 1", got)
	}
}

// TestRecordingIsAllocFree pins that the hot-path recording methods do not
// allocate — the histograms and counters are fixed-size atomics.
func TestRecordingIsAllocFree(t *testing.T) {
	s := NewBarrierStats(4)
	if n := testing.AllocsPerRun(200, func() {
		s.Arrive(1, 0)
		s.Wait(1, RegimePark, 45678)
		s.Release(1)
	}); n != 0 {
		t.Errorf("BarrierStats recording allocates %.1f per phase, want 0", n)
	}
}

func TestCampaignRecorderTelemetry(t *testing.T) {
	r := NewCampaignRecorder()
	r.Begin(2, 10, 8)
	r.ShardLayout([]int{6, 4})
	r.SamplePhase("start")

	w0, w1 := r.Worker(0), r.Worker(1)
	t0 := w0.Clock()
	w0.Cell(t0, 0, false)
	w0.Cell(w0.Clock(), 1, true)
	w1.StealAttempt()
	w1.Steal(w1.Clock(), 3)
	w1.Cell(w1.Clock(), 9, false)
	r.SamplePhase("done")

	if got := r.LiveSteals(); got != 1 {
		t.Errorf("live steals %d, want 1", got)
	}
	if got := r.LiveWorkerCells(); got[0] != 2 || got[1] != 1 {
		t.Errorf("live worker cells %v, want [2 1]", got)
	}

	tel := r.Telemetry()
	if tel.CellsDone != 3 || tel.Steals != 1 || tel.StealAttempts != 1 || tel.CellsStolen != 3 {
		t.Errorf("telemetry %+v: wrong counters", tel)
	}
	if tel.AffinityHits != 1 {
		t.Errorf("affinity hits %d, want 1", tel.AffinityHits)
	}
	if got := tel.AffinityHitRate(); got <= 0.33 || got >= 0.34 {
		t.Errorf("affinity hit rate %g, want 1/3", got)
	}
	if len(tel.ShardCells) != 2 || tel.ShardCells[0] != 6 {
		t.Errorf("shard cells %v, want [6 4]", tel.ShardCells)
	}
	if len(tel.Phases) != 2 || tel.Phases[0].Phase != "start" || tel.Phases[1].Phase != "done" {
		t.Fatalf("phases %v, want start+done", tel.Phases)
	}
	if tel.Phases[0].HeapBytes == 0 || tel.Phases[0].Goroutines <= 0 {
		t.Errorf("phase sample missing runtime data: %+v", tel.Phases[0])
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewCampaignRecorder()
	r.Begin(1, 2, 4)
	r.ShardLayout([]int{2})
	r.SamplePhase("start")
	w := r.Worker(0)
	w.Cell(w.Clock(), 0, false)
	w.Cell(w.Clock(), 1, true)
	r.BarrierStats().Arrive(0, 0)
	r.BarrierStats().Wait(0, RegimePark, 5000)
	r.SamplePhase("done")

	tel := r.Telemetry()
	var sb strings.Builder
	if err := tel.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"esrp_host_cells_done_total 2",
		`esrp_host_shard_cells{shard="0"} 2`,
		"esrp_host_affinity_hit_ratio 0.5",
		`esrp_host_barrier_wait_seconds_total{member="0",regime="park"} 5e-06`,
		`esrp_host_phase_goroutines{phase="start"}`,
		"esrp_host_steals_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}
}
