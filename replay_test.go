package esrp_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"esrp"
)

// replayCase is one (strategy, failure timeline) shape of the bitwise
// re-cost gate.
type replayCase struct {
	name string
	cfg  esrp.Config
}

func replayCases(t *testing.T) []replayCase {
	t.Helper()
	a := esrp.Poisson2D(32, 32)
	b := esrp.RHSOnes(a.Rows)
	base := func() esrp.Config {
		return esrp.Config{A: a, B: b, Nodes: 4, Rtol: 1e-8, DetectionTime: 2e-5}
	}
	mk := func(name string, mut func(*esrp.Config)) replayCase {
		cfg := base()
		mut(&cfg)
		return replayCase{name: name, cfg: cfg}
	}
	return []replayCase{
		mk("none/failure-free", func(c *esrp.Config) { c.Strategy = esrp.StrategyNone }),
		mk("none/restart", func(c *esrp.Config) {
			c.Strategy = esrp.StrategyNone
			c.Failures = []esrp.FailureSpec{{Iteration: 12, Ranks: []int{2}}}
		}),
		mk("esr/failure", func(c *esrp.Config) {
			c.Strategy = esrp.StrategyESR
			c.Phi = 1
			c.Failures = []esrp.FailureSpec{{Iteration: 12, Ranks: []int{1}}}
		}),
		mk("esrp/multi-event", func(c *esrp.Config) {
			c.Strategy = esrp.StrategyESRP
			c.T, c.Phi = 8, 1
			c.Failures = []esrp.FailureSpec{
				{Iteration: 12, Ranks: []int{1}},
				{Iteration: 30, Ranks: []int{3}},
			}
		}),
		mk("imcr/failure", func(c *esrp.Config) {
			c.Strategy = esrp.StrategyIMCR
			c.T, c.Phi = 8, 1
			c.Failures = []esrp.FailureSpec{{Iteration: 12, Ranks: []int{2}}}
		}),
		mk("nospare/shrink", func(c *esrp.Config) {
			c.Strategy = esrp.StrategyESRP
			c.T, c.Phi = 8, 1
			c.NoSpareNodes = true
			c.Failures = []esrp.FailureSpec{{Iteration: 12, Ranks: []int{1}}}
		}),
		mk("spares-exhausted/multi-event", func(c *esrp.Config) {
			c.Strategy = esrp.StrategyESRP
			c.T, c.Phi = 8, 1
			c.Spares = 1
			c.Failures = []esrp.FailureSpec{
				{Iteration: 12, Ranks: []int{1}}, // consumes the pool
				{Iteration: 30, Ranks: []int{2}}, // falls back to the shrink
			}
		}),
	}
}

func record(t *testing.T, cfg esrp.Config) (*esrp.Result, *esrp.Schedule) {
	t.Helper()
	res, sched, err := esrp.RecordSchedule(cfg)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	return res, sched
}

// TestRecostReproducesSolveBitForBit is the tentpole gate: replayed under
// the recording machine model, a schedule reproduces the full solve's
// SimTime, RecoveryTime, BytesSent and MsgsSent exactly (float equality, no
// tolerance) for every strategy including multi-event and shrink timelines.
func TestRecostReproducesSolveBitForBit(t *testing.T) {
	for _, rc := range replayCases(t) {
		t.Run(rc.name, func(t *testing.T) {
			res, sched := record(t, rc.cfg)
			if !res.Converged {
				t.Fatalf("case did not converge (relres %g)", res.RelResidual)
			}
			if len(rc.cfg.Failures) > 0 {
				if len(res.Events) == 0 {
					t.Fatalf("no failure events fired; the case is vacuous")
				}
			}
			rep, err := sched.Recost(esrp.DefaultCostModel())
			if err != nil {
				t.Fatalf("Recost: %v", err)
			}
			if rep.SimTime != res.SimTime {
				t.Errorf("SimTime: replay %.17g, solve %.17g", rep.SimTime, res.SimTime)
			}
			if rep.RecoveryTime != res.RecoveryTime {
				t.Errorf("RecoveryTime: replay %.17g, solve %.17g", rep.RecoveryTime, res.RecoveryTime)
			}
			if rep.BytesSent != res.BytesSent {
				t.Errorf("BytesSent: replay %d, solve %d", rep.BytesSent, res.BytesSent)
			}
			if rep.MsgsSent != res.MsgsSent {
				t.Errorf("MsgsSent: replay %d, solve %d", rep.MsgsSent, res.MsgsSent)
			}
		})
	}
}

// TestRecordingDoesNotPerturbSolve pins the zero-interference half of the
// contract: a recorded solve's figures equal an unrecorded one's.
func TestRecordingDoesNotPerturbSolve(t *testing.T) {
	rc := replayCases(t)[3] // esrp/multi-event
	res, _ := record(t, rc.cfg)
	plain, err := esrp.Solve(rc.cfg)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.SimTime != plain.SimTime || res.BytesSent != plain.BytesSent ||
		res.MsgsSent != plain.MsgsSent || res.RecoveryTime != plain.RecoveryTime ||
		res.Iterations != plain.Iterations {
		t.Fatalf("recording perturbed the solve: recorded %+v, plain %+v", res, plain)
	}
}

// TestRecostUnderSweptMachines checks the point of the exercise: replays
// under different machine models move the modeled runtime the way the LogGP
// arithmetic says they must, without re-running the solve.
func TestRecostUnderSweptMachines(t *testing.T) {
	rc := replayCases(t)[3] // esrp/multi-event
	_, sched := record(t, rc.cfg)
	base := esrp.DefaultCostModel()
	ref, err := sched.Recost(base)
	if err != nil {
		t.Fatalf("Recost: %v", err)
	}
	slow := base
	slow.Latency *= 10
	repSlow, err := sched.Recost(slow)
	if err != nil {
		t.Fatalf("Recost(10×L): %v", err)
	}
	if repSlow.SimTime <= ref.SimTime {
		t.Errorf("10× latency should slow the replayed solve: %.6g ≤ %.6g", repSlow.SimTime, ref.SimTime)
	}
	if repSlow.BytesSent != ref.BytesSent || repSlow.MsgsSent != ref.MsgsSent {
		t.Errorf("traffic is model-independent; replays disagree: %d/%d vs %d/%d",
			repSlow.BytesSent, repSlow.MsgsSent, ref.BytesSent, ref.MsgsSent)
	}
	fast := base
	fast.FlopTime /= 8
	repFast, err := sched.Recost(fast)
	if err != nil {
		t.Fatalf("Recost(8× flops): %v", err)
	}
	if repFast.SimTime >= ref.SimTime {
		t.Errorf("8× faster cores should speed the replayed solve: %.6g ≥ %.6g", repFast.SimTime, ref.SimTime)
	}
}

// TestScheduleSerializationRoundTrip: a schedule written by
// WriteScheduleFile reads back through ReadScheduleFile to one whose replay
// is bit-identical, and writing what was read reproduces the file's bytes.
func TestScheduleSerializationRoundTrip(t *testing.T) {
	rc := replayCases(t)[3] // esrp/multi-event: exercises every event kind
	_, sched := record(t, rc.cfg)
	ref, err := sched.Recost(esrp.DefaultCostModel())
	if err != nil {
		t.Fatalf("Recost: %v", err)
	}

	dir := t.TempDir()
	first, again := filepath.Join(dir, "first.sched"), filepath.Join(dir, "again.sched")
	if err := esrp.WriteScheduleFile(first, sched); err != nil {
		t.Fatalf("WriteScheduleFile: %v", err)
	}
	decoded, err := esrp.ReadScheduleFile(first)
	if err != nil {
		t.Fatalf("ReadScheduleFile: %v", err)
	}
	if err := esrp.WriteScheduleFile(again, decoded); err != nil {
		t.Fatalf("re-write: %v", err)
	}
	fb, err1 := os.ReadFile(first)
	ab, err2 := os.ReadFile(again)
	if err1 != nil || err2 != nil || !bytes.Equal(fb, ab) {
		t.Errorf("schedule file is not stable under read/write (%d vs %d bytes; %v, %v)", len(fb), len(ab), err1, err2)
	}
	rep, err := decoded.Recost(esrp.DefaultCostModel())
	if err != nil {
		t.Fatalf("Recost(decoded): %v", err)
	}
	if rep.SimTime != ref.SimTime || rep.RecoveryTime != ref.RecoveryTime ||
		rep.BytesSent != ref.BytesSent || rep.MsgsSent != ref.MsgsSent {
		t.Errorf("file round-trip changed the replay: %+v vs %+v", rep, ref)
	}

	garbage := filepath.Join(dir, "garbage.sched")
	if err := os.WriteFile(garbage, []byte("notaschedule"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := esrp.ReadScheduleFile(garbage); err == nil {
		t.Errorf("ReadScheduleFile accepted garbage")
	}
}

// TestScheduleBytesDeterministicAcrossRuns: recording the same solve twice
// yields byte-identical serialized schedules — the view canonicalization
// erases the racy arena-creation order.
func TestScheduleBytesDeterministicAcrossRuns(t *testing.T) {
	rc := replayCases(t)[6] // spares-exhausted: creates sub-communicator views
	_, s1 := record(t, rc.cfg)
	_, s2 := record(t, rc.cfg)
	b1, err1 := s1.EncodeBinary()
	b2, err2 := s2.EncodeBinary()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("two recordings of one solve serialize differently (%d vs %d bytes)", len(b1), len(b2))
	}
}

// TestCampaignMachineSweepDeterministicAcrossWorkers: a -sweep-machine
// campaign's full report (cells and machine cells) is byte-identical
// regardless of the worker count, and each machine cell replayed under the
// recording model matches its cell's full solve bit-for-bit.
func TestCampaignMachineSweepDeterministicAcrossWorkers(t *testing.T) {
	a := esrp.Poisson2D(24, 24)
	base := esrp.DefaultCostModel()
	slow := base
	slow.Latency *= 10
	grid := func(workers int) esrp.CampaignGrid {
		return esrp.CampaignGrid{
			Matrices:   []esrp.CampaignMatrix{{Name: "poisson24", A: a}},
			Nodes:      []int{4},
			Strategies: []esrp.Strategy{esrp.StrategyESRP, esrp.StrategyIMCR},
			Ts:         []int{8, 16},
			Phis:       []int{1},
			Seeds:      []int64{1, 2},
			Scenario: esrp.FailureScenario{
				Model: esrp.ScenarioExponential, Horizon: 60, MTBF: 150, MaxEvents: 2,
			},
			Machines: []esrp.CampaignMachine{
				{Name: "default", Model: base},
				{Name: "slow-net", Model: slow},
			},
			Workers: workers,
		}
	}
	rep1, err := esrp.RunCampaign(grid(1))
	if err != nil {
		t.Fatalf("RunCampaign(workers=1): %v", err)
	}
	rep4, err := esrp.RunCampaign(grid(4))
	if err != nil {
		t.Fatalf("RunCampaign(workers=4): %v", err)
	}
	j1, err := json.Marshal(rep1)
	if err != nil {
		t.Fatal(err)
	}
	j4, err := json.Marshal(rep4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j4) {
		t.Errorf("machine-sweep report bytes differ across worker counts (%d vs %d bytes)", len(j1), len(j4))
	}
	if len(rep1.MachineCells) != len(rep1.Cells)*len(rep1.Machines) {
		t.Fatalf("machine cells: got %d, want %d", len(rep1.MachineCells), len(rep1.Cells)*len(rep1.Machines))
	}
	for _, mc := range rep1.MachineCells {
		if mc.Err != "" {
			t.Fatalf("machine cell (%d,%d): %s", mc.Cell, mc.Machine, mc.Err)
		}
		if rep1.Machines[mc.Machine].Name != "default" {
			continue
		}
		c := rep1.Cells[mc.Cell]
		if c.Err != "" {
			t.Fatalf("cell %d: %s", mc.Cell, c.Err)
		}
		if mc.SimTime != c.SimTime || mc.RecoveryTime != c.RecoveryTime || mc.BytesSent != c.BytesSent {
			t.Errorf("cell %d under the recording model: replay (%.17g, %.17g, %d) vs solve (%.17g, %.17g, %d)",
				mc.Cell, mc.SimTime, mc.RecoveryTime, mc.BytesSent, c.SimTime, c.RecoveryTime, c.BytesSent)
		}
	}
}
