package campaign

import (
	"bytes"
	"testing"

	"esrp/internal/hostobs"
	"esrp/internal/obs"
)

// TestHostObsTelemetrySanity runs the one-context grid (24 cells) with
// several workers and checks the recorder's aggregate story: every cell
// accounted once, no steals, the shared barrier saw traffic, and phase
// samples bracket the run.
func TestHostObsTelemetrySanity(t *testing.T) {
	g := oneContextGrid()
	g.Workers = 4
	rec := hostobs.NewCampaignRecorder()
	g.HostObs = rec
	if _, err := Run(g); err != nil {
		t.Fatal(err)
	}
	tel := rec.Telemetry()

	const total = 8 * 3
	if tel.TotalCells != total || tel.CellsDone != total {
		t.Errorf("cells: total %d done %d, want %d", tel.TotalCells, tel.CellsDone, total)
	}
	if tel.Steals != 0 {
		t.Errorf("recorded %d steals, want 0: workers share one cursor", tel.Steals)
	}
	var workerCells int64
	for _, w := range tel.Workers {
		workerCells += w.Cells
	}
	if workerCells != total {
		t.Errorf("per-worker cells sum to %d, want %d", workerCells, total)
	}
	if tel.BusyNs <= 0 || tel.BusyNs > int64(len(tel.Workers))*tel.WallNs {
		t.Errorf("busy %dns outside (0, workers×wall=%dns]", tel.BusyNs, int64(len(tel.Workers))*tel.WallNs)
	}
	// Every cell's solve runs 4 simulated ranks through the instrumented
	// barrier, so the shared stats must have seen phases.
	var phases int64
	for _, m := range tel.Barrier.Members {
		phases += m.Phases
	}
	if phases == 0 {
		t.Error("shared barrier stats saw no phases")
	}
	if tel.BarrierWaitNs < 0 {
		t.Errorf("negative barrier wait %d", tel.BarrierWaitNs)
	}
	if len(tel.Phases) < 3 {
		t.Fatalf("got %d phase samples, want start/prepared/done", len(tel.Phases))
	}
	if tel.Phases[0].Phase != "start" || tel.Phases[len(tel.Phases)-1].Phase != "done" {
		t.Errorf("phase samples %q..%q, want start..done", tel.Phases[0].Phase, tel.Phases[len(tel.Phases)-1].Phase)
	}
	if hits := tel.AffinityHitRate(); hits < 0 || hits > 1 {
		t.Errorf("affinity hit rate %g outside [0,1]", hits)
	}
}

// TestBuildHostTraceValidates converts a live recorder into a Chrome trace
// and runs it through the same validator the simulated-clock traces use.
func TestBuildHostTraceValidates(t *testing.T) {
	g := oneContextGrid()
	g.Workers = 3
	rec := hostobs.NewCampaignRecorder()
	g.HostObs = rec
	rep := mustRun(t, g)
	tr := BuildHostTrace(rec, rep, obs.BuildInfo{GoVersion: "test", Revision: "deadbeef"})
	if tr == nil {
		t.Fatal("BuildHostTrace returned nil for a live recorder")
	}
	if len(tr.Threads) != 3 {
		t.Fatalf("trace has %d threads, want one per worker (3)", len(tr.Threads))
	}
	var spans int
	for _, th := range tr.Threads {
		spans += len(th.Spans)
	}
	if spans < 8*3 {
		t.Errorf("trace has %d spans, want at least one per cell (%d)", spans, 8*3)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("host trace failed Chrome validation: %v", err)
	}
	if BuildHostTrace(nil, rep, obs.BuildInfo{}) != nil {
		t.Error("BuildHostTrace on a nil recorder returned a trace")
	}
}

// TestCursorClaimsEachCellOnce pins the executor's work queue: on the
// one-context grid, with one worker, eight, and more workers than cells,
// the host trace's cell spans across all workers carry every grid index
// exactly once. Run with -race this also traps a cursor that hands one
// index to two workers.
func TestCursorClaimsEachCellOnce(t *testing.T) {
	for _, workers := range []int{1, 8, 40} {
		g := oneContextGrid()
		g.Workers = workers
		rec := hostobs.NewCampaignRecorder()
		g.HostObs = rec
		rep := mustRun(t, g)
		if len(rep.Cells) != 8*3 {
			t.Fatalf("workers=%d: %d cells, want %d", workers, len(rep.Cells), 8*3)
		}
		seen := make([]int, len(rep.Cells))
		for _, th := range BuildHostTrace(rec, rep, obs.BuildInfo{}).Threads {
			for _, s := range th.Spans {
				if s.Iter < 0 || s.Iter >= len(seen) {
					t.Fatalf("workers=%d: span for cell %d outside the %d-cell grid", workers, s.Iter, len(seen))
				}
				seen[s.Iter]++
			}
		}
		for i, n := range seen {
			if n != 1 {
				t.Errorf("workers=%d: cell %d has %d spans, want 1", workers, i, n)
			}
		}
	}
}
