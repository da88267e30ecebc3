package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"esrp/internal/obs"
)

// -update-golden regenerates testdata/golden_trajectories.json from the
// current solver. Run it ONLY when a change is meant to alter trajectories;
// performance work must leave the file untouched.
var updateGolden = flag.Bool("update-golden", false, "regenerate the golden trajectory file")

// goldenRecord pins everything a fixed-seed solve must reproduce bit for
// bit: the residual trajectory (as raw float64 bits, so == comparisons catch
// single-ulp drift), a digest of the converged iterand, the simulated clock,
// the traffic counters, and the recovery event log.
type goldenRecord struct {
	Iterations   int             `json:"iterations"`
	TotalSteps   int             `json:"total_steps"`
	Converged    bool            `json:"converged"`
	ResidualBits []string        `json:"residual_bits"`
	XDigest      string          `json:"x_digest"`
	SimTimeBits  string          `json:"sim_time_bits"`
	BytesSent    int64           `json:"bytes_sent"`
	MsgsSent     int64           `json:"msgs_sent"`
	HaloBytes    int64           `json:"halo_bytes"`
	MaxNodeBytes int64           `json:"max_node_bytes"`
	Events       []RecoveryEvent `json:"events"`
	// TraceDigest pins the Chrome trace export of the scenarios that ask for
	// it (driverScenarios): FNV-64a over Trace.WriteChrome's bytes.
	TraceDigest string `json:"trace_digest,omitempty"`
}

func goldenPath() string        { return filepath.Join("testdata", "golden_trajectories.json") }
func driverGoldenPath() string  { return filepath.Join("testdata", "golden_driver.json") }
func blockedGoldenPath() string { return filepath.Join("testdata", "golden_blocked.json") }

func recordOf(res *Result) goldenRecord {
	bits := make([]string, len(res.Residuals))
	for i, v := range res.Residuals {
		bits[i] = fmt.Sprintf("%016x", math.Float64bits(v))
	}
	h := fnv.New64a()
	var b [8]byte
	for _, v := range res.X {
		u := math.Float64bits(v)
		for k := 0; k < 8; k++ {
			b[k] = byte(u >> (8 * k))
		}
		h.Write(b[:])
	}
	ev := res.Events
	if ev == nil {
		ev = []RecoveryEvent{}
	}
	return goldenRecord{
		Iterations:   res.Iterations,
		TotalSteps:   res.TotalSteps,
		Converged:    res.Converged,
		ResidualBits: bits,
		XDigest:      fmt.Sprintf("%016x", h.Sum64()),
		SimTimeBits:  fmt.Sprintf("%016x", math.Float64bits(res.SimTime)),
		BytesSent:    res.BytesSent,
		MsgsSent:     res.MsgsSent,
		HaloBytes:    res.HaloBytes,
		MaxNodeBytes: res.MaxNodeBytes,
		Events:       ev,
	}
}

// driverScenario is one solve pinned by testdata/golden_driver.json: the
// paths through the step loop, the failure handling and the IMCR protocol
// that golden_trajectories.json does not reach — every pipelined one, and the
// standard solver's local restart, early-failure fallback, re-ship and
// detection-time paths. The traced ESR/ESRP scenarios pin the span sequence
// of the reconstruction's inner solve and of the augmented exchange.
type driverScenario struct {
	name      string
	pipelined bool
	trace     bool // also pin the Chrome trace export
	mut       func(*Config)
}

func driverScenarios() []driverScenario {
	imcr := func(t, phi int) func(*Config) {
		return func(cfg *Config) { cfg.Strategy, cfg.T, cfg.Phi = StrategyIMCR, t, phi }
	}
	esrp := func(t, phi int) func(*Config) {
		return func(cfg *Config) { cfg.Strategy, cfg.T, cfg.Phi = StrategyESRP, t, phi }
	}
	with := func(muts ...func(*Config)) func(*Config) {
		return func(cfg *Config) {
			for _, mut := range muts {
				mut(cfg)
			}
		}
	}
	fail := func(events ...FailureSpec) func(*Config) {
		return func(cfg *Config) { cfg.Failures = events }
	}
	detect := func(cfg *Config) { cfg.DetectionTime = 1e-4 }
	x0 := func(cfg *Config) {
		cfg.X0 = make([]float64, cfg.A.Rows)
		for i := range cfg.X0 {
			cfg.X0[i] = 0.25 + float64(i%7)/16
		}
	}
	// Rank s checkpoints to s+1 at φ = 1: the second event's only buddy is
	// the rank the first event just replaced, so it restores from the
	// checkpoint re-shipped after the first recovery.
	reship := fail(FailureSpec{Iteration: 22, Ranks: []int{3}},
		FailureSpec{Iteration: 24, Ranks: []int{2}},
		FailureSpec{Iteration: 55, Ranks: []int{3}})
	return []driverScenario{
		{name: "pipelined/none-ff", pipelined: true, mut: with()},
		{name: "pipelined/none-fail", pipelined: true,
			mut: with(detect, fail(FailureSpec{Iteration: 40, Ranks: []int{2, 3}}))},
		{name: "pipelined/imcr-fail", pipelined: true, trace: true,
			mut: with(imcr(10, 1), x0, fail(FailureSpec{Iteration: 33, Ranks: []int{4}}))},
		{name: "pipelined/imcr-before-first-checkpoint", pipelined: true,
			mut: with(imcr(50, 1), fail(FailureSpec{Iteration: 5, Ranks: []int{1}}))},
		{name: "pipelined/imcr-reship", pipelined: true, mut: with(imcr(10, 1), reship)},
		{name: "pipelined/imcr-detect", pipelined: true,
			mut: with(imcr(10, 2), detect, fail(FailureSpec{Iteration: 35, Ranks: []int{4, 5}}))},
		{name: "pipelined/imcr-balanced", pipelined: true,
			mut: with(imcr(10, 1), func(cfg *Config) { cfg.BalanceNNZ = true },
				fail(FailureSpec{Iteration: 33, Ranks: []int{7}}))},
		{name: "standard/none-fail",
			mut: with(func(cfg *Config) { cfg.ResidualReplacementInterval = 7 },
				fail(FailureSpec{Iteration: 40, Ranks: []int{2, 3}}))},
		{name: "standard/esrp-before-first-stage",
			mut: with(func(cfg *Config) { cfg.Strategy, cfg.T, cfg.Phi = StrategyESRP, 20, 1 },
				fail(FailureSpec{Iteration: 2, Ranks: []int{6}}))},
		{name: "standard/imcr-reship", trace: true, mut: with(imcr(10, 1), reship)},
		{name: "standard/esrp-spare", trace: true,
			mut: with(esrp(10, 2), fail(FailureSpec{Iteration: 33, Ranks: []int{3, 4}}))},
		{name: "standard/esr-shrink", trace: true,
			mut: with(func(cfg *Config) { cfg.Strategy, cfg.Phi, cfg.NoSpareNodes = StrategyESR, 1, true },
				fail(FailureSpec{Iteration: 30, Ranks: []int{5}}))},
		{name: "standard/esrp-blocking", trace: true,
			mut: with(esrp(10, 1), func(cfg *Config) { cfg.BlockingExchange = true },
				fail(FailureSpec{Iteration: 33, Ranks: []int{4}}))},
		{name: "standard/imcr-detect",
			mut: with(imcr(10, 1), x0, detect, fail(FailureSpec{Iteration: 33, Ranks: []int{4}}))},
	}
}

// driverRecords solves every driver scenario; the traced ones a second time
// with observation on (which must not move a bit of the first record).
func driverRecords(t *testing.T) map[string]goldenRecord {
	t.Helper()
	got := make(map[string]goldenRecord)
	for _, sc := range driverScenarios() {
		cfg := baseConfig(t)
		cfg.RecordResiduals = true
		sc.mut(&cfg)
		solver := Solve
		if sc.pipelined {
			solver = SolvePipelined
		}
		res, err := solver(cfg)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		if len(res.Events) != len(cfg.Failures) {
			t.Fatalf("%s: %d of %d events fired", sc.name, len(res.Events), len(cfg.Failures))
		}
		rec := recordOf(res)
		if sc.trace {
			cfg.Observe = &obs.Options{Trace: true, Series: true}
			traced, err := solver(cfg)
			if err != nil {
				t.Fatalf("%s traced: %v", sc.name, err)
			}
			if again := recordOf(traced); !reflect.DeepEqual(again, rec) {
				t.Errorf("%s: record changed with tracing on", sc.name)
			}
			traced.Trace.Build = obs.BuildInfo{} // toolchain and revision are not the solver's
			var buf bytes.Buffer
			if err := traced.Trace.WriteChrome(&buf); err != nil {
				t.Fatalf("%s: %v", sc.name, err)
			}
			h := fnv.New64a()
			h.Write(buf.Bytes())
			rec.TraceDigest = fmt.Sprintf("%016x", h.Sum64())
		}
		got[sc.name] = rec
	}
	return got
}

// blockedRecords solves the recovery-storm shape (stormBase: 3 dofs per
// vertex, 8 ranks, φ = 3), the only dof-blocked input the core goldens
// reach: its rows form period-3 band runs, so testdata/golden_blocked.json
// pins that path of the band layout under every forced kernel. One ψ = 3
// event per strategy and the spares-exhausted tail (a spare recovery, then
// two shrinks).
func blockedRecords(t *testing.T) map[string]goldenRecord {
	t.Helper()
	event := func(cfg *Config) { cfg.Failures = []FailureSpec{{Iteration: 25, Ranks: []int{2, 3, 4}}} }
	shrinks := func(cfg *Config) {
		cfg.Spares = 3
		cfg.MaxIter = 110
		cfg.Failures = []FailureSpec{
			{Iteration: 25, Ranks: []int{4, 5, 6}},
			{Iteration: 50, Ranks: []int{1, 2, 3}},
			{Iteration: 75, Ranks: []int{0, 1, 2}},
		}
	}
	got := make(map[string]goldenRecord)
	for _, strategy := range []Strategy{StrategyESR, StrategyESRP} {
		for _, sc := range []struct {
			name string
			mut  func(*Config)
		}{{"event", event}, {"spare-then-two-shrinks", shrinks}} {
			cfg := stormBase(t, strategy)
			cfg.Kernel = testKernel(t)
			sc.mut(&cfg)
			name := strategy.String() + "/" + sc.name
			res, err := Solve(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(res.Events) != len(cfg.Failures) {
				t.Fatalf("%s: %d of %d events fired", name, len(res.Events), len(cfg.Failures))
			}
			got[name] = recordOf(res)
		}
	}
	return got
}

// TestGoldenTrajectories pins the residual trajectories, iterand digest,
// simulated clock, traffic counters and Result.Events of every
// strategy/recovery path of both solvers against the committed golden
// files. Any execution rewrite (collectives, kernels, buffer reuse, the
// solver driver) must keep these byte-identical; only deliberate numerical
// changes may regenerate the files.
func TestGoldenTrajectories(t *testing.T) {
	got := make(map[string]goldenRecord)
	for name, cfg := range localPathScenarios(t) {
		res, err := Solve(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = recordOf(res)
	}
	checkGolden(t, goldenPath(), got)
	checkGolden(t, driverGoldenPath(), driverRecords(t))
	checkGolden(t, blockedGoldenPath(), blockedRecords(t))
}

// checkGolden compares got with the golden file at path, field by field so a
// failure says what moved — or rewrites the file under -update-golden.
func checkGolden(t *testing.T, path string, got map[string]goldenRecord) {
	t.Helper()
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d scenarios)", path, len(got))
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	var want map[string]goldenRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d scenarios, test produced %d", path, len(want), len(got))
	}
	for _, name := range names {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: not in golden file", name)
			continue
		}
		g := got[name]
		if g.Iterations != w.Iterations || g.TotalSteps != w.TotalSteps || g.Converged != w.Converged {
			t.Errorf("%s: iterations (%d,%d,%v) != golden (%d,%d,%v)",
				name, g.Iterations, g.TotalSteps, g.Converged, w.Iterations, w.TotalSteps, w.Converged)
		}
		if len(g.ResidualBits) != len(w.ResidualBits) {
			t.Errorf("%s: residual log length %d != golden %d", name, len(g.ResidualBits), len(w.ResidualBits))
		} else {
			for i := range g.ResidualBits {
				if g.ResidualBits[i] != w.ResidualBits[i] {
					t.Errorf("%s: residual %d bits %s != golden %s (trajectory changed)",
						name, i, g.ResidualBits[i], w.ResidualBits[i])
					break
				}
			}
		}
		if g.XDigest != w.XDigest {
			t.Errorf("%s: iterand digest %s != golden %s", name, g.XDigest, w.XDigest)
		}
		if g.SimTimeBits != w.SimTimeBits {
			t.Errorf("%s: simulated clock bits %s != golden %s (cost model drifted)", name, g.SimTimeBits, w.SimTimeBits)
		}
		if g.BytesSent != w.BytesSent || g.MsgsSent != w.MsgsSent || g.HaloBytes != w.HaloBytes {
			t.Errorf("%s: traffic (%d B, %d msgs, %d halo) != golden (%d, %d, %d)",
				name, g.BytesSent, g.MsgsSent, g.HaloBytes, w.BytesSent, w.MsgsSent, w.HaloBytes)
		}
		if g.MaxNodeBytes != w.MaxNodeBytes {
			t.Errorf("%s: max node bytes %d != golden %d", name, g.MaxNodeBytes, w.MaxNodeBytes)
		}
		if !reflect.DeepEqual(g.Events, w.Events) {
			t.Errorf("%s: recovery events %+v != golden %+v", name, g.Events, w.Events)
		}
		if g.TraceDigest != w.TraceDigest {
			t.Errorf("%s: Chrome trace digest %s != golden %s", name, g.TraceDigest, w.TraceDigest)
		}
	}
}
