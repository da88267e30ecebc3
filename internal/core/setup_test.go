package core

import (
	"errors"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"esrp/internal/dist"
	"esrp/internal/matgen"
	"esrp/internal/obs"
	"esrp/internal/sparse"
)

// TestRecoverySetupsBuildOnce hammers one table from many goroutines: each
// key is built exactly once, every asker gets the builder's instance, and a
// failed build reaches every asker as the original error.
func TestRecoverySetupsBuildOnce(t *testing.T) {
	var table recoverySetups
	p1, p2 := dist.NewBlockPartition(80, 8), dist.NewBlockPartition(80, 8)
	boom := errors.New("core: inner plan: boom")
	keys := []setupKey{
		{part: p1, flo: 10, fhi: 40, kind: setupInner},
		{part: p1, flo: 10, fhi: 40, kind: setupInnerSeq}, // same block, other shape
		{part: p1, flo: 10, fhi: 40, kind: setupShrink},
		{part: p2, flo: 10, fhi: 40, kind: setupInner}, // equal partition, later in the solve
		{part: p1, flo: 20, fhi: 50, kind: setupInner}, // fails to build
	}
	const askers = 16
	builds := make([]int, len(keys)) // written under the table's mutex
	got := make([][askers]*staticSystem, len(keys))
	errs := make([][askers]error, len(keys))
	var wg sync.WaitGroup
	for g := 0; g < askers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, key := range keys {
				got[k][g], errs[k][g] = table.get(key, func() (*staticSystem, error) {
					builds[k]++
					if k == len(keys)-1 {
						return nil, boom
					}
					return &staticSystem{part: key.part}, nil
				})
			}
		}()
	}
	wg.Wait()
	for k := range keys {
		if builds[k] != 1 {
			t.Errorf("key %d built %d times, want once", k, builds[k])
		}
		for g := 0; g < askers; g++ {
			if got[k][g] != got[k][0] {
				t.Errorf("key %d: asker %d got a different instance", k, g)
			}
			var wantErr error
			if k == len(keys)-1 {
				wantErr = boom
			}
			if errs[k][g] != wantErr {
				t.Errorf("key %d: asker %d got error %v, want %v", k, g, errs[k][g], wantErr)
			}
		}
	}
	if got[0][0] == got[1][0] || got[0][0] == got[3][0] {
		t.Error("distinct keys share a set-up")
	}
}

// stormBase is the recovery-storm shape at test size: an AudikwLike system
// on 8 ranks with φ = 3, run for a fixed number of iterations.
func stormBase(t testing.TB, strategy Strategy) Config {
	t.Helper()
	a := matgen.AudikwLike(6, 6, 6, 3, 3)
	b, _ := matgen.RHSForSolution(a, 4)
	cfg := Config{
		A: a, B: b, Nodes: 8, Rtol: 1e-300, MaxIter: 90,
		Strategy: strategy, Phi: 3, Observe: &obs.Options{Series: true},
	}
	if strategy == StrategyESRP {
		cfg.T = 10
	}
	return cfg
}

// spareThenTwoShrinks is recovery-storm's spares-exhausted tail on
// stormBase: a spare recovery, then two shrinks, the second of which
// retires global rank 0.
func spareThenTwoShrinks(cfg *Config) {
	cfg.Spares = 3
	cfg.MaxIter = 110
	cfg.Failures = []FailureSpec{
		{Iteration: 25, Ranks: []int{4, 5, 6}},
		{Iteration: 50, Ranks: []int{1, 2, 3}}, // 8 → 5 ranks
		{Iteration: 75, Ranks: []int{0, 1, 2}}, // 5 → 2 ranks, φ drops to 1
	}
}

// TestRecoverySetUpOncePerEvent runs ψ = φ = 3 timelines whose set-ups must
// be shared across ranks and resolved by the right key: the same block
// failing twice (one inner system, found again), a spare recovery followed
// by two shrinks (the spares-exhausted tail of recovery-storm: each shrink
// starts from the previous one's partition), and the gathered inner solve.
// With the ranks genuinely parallel — the CI multicore legs run this under
// -race at GOMAXPROCS 2 and 4 — iterate, residuals, simulated time, traffic
// and event log must equal the same Config run at GOMAXPROCS=1 bit for bit,
// and the table must hold exactly the set-ups the timeline calls for.
func TestRecoverySetUpOncePerEvent(t *testing.T) {
	timelines := []struct {
		name   string
		mut    func(*Config)
		setups map[setupKind]int
		active int
	}{
		{"same-block-twice", func(cfg *Config) {
			cfg.Failures = []FailureSpec{
				{Iteration: 25, Ranks: []int{2, 3, 4}},
				{Iteration: 50, Ranks: []int{2, 3, 4}},
			}
		}, map[setupKind]int{setupInner: 1}, 8},
		{"spare-then-two-shrinks", spareThenTwoShrinks, map[setupKind]int{setupInner: 1, setupInnerSeq: 2, setupShrink: 2}, 2},
	}
	parallel := runtime.GOMAXPROCS(0) // the CI legs' 2 or 4
	if parallel < 2 {
		parallel = 4
	}
	for _, strategy := range []Strategy{StrategyESR, StrategyESRP} {
		for _, tl := range timelines {
			t.Run(strategy.String()+"/"+tl.name, func(t *testing.T) {
				cfg := stormBase(t, strategy)
				cfg.kernel = testKernel(t)
				tl.mut(&cfg)
				run := func(procs int) (*Result, *solveShared) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					sh := new(solveShared)
					res, err := sh.solve(cfg)
					if err != nil {
						t.Fatal(err)
					}
					return res, sh
				}
				want, _ := run(1)
				got, sh := run(parallel)

				if len(got.Events) != len(cfg.Failures) || got.ActiveNodes != tl.active {
					t.Fatalf("%d events, %d active nodes; want %d, %d: %+v",
						len(got.Events), got.ActiveNodes, len(cfg.Failures), tl.active, got.Events)
				}
				// recordOf is the golden suite's bitwise fingerprint: residual
				// bits, iterate digest, clock bits, traffic, footprint, events.
				if g, w := recordOf(got), recordOf(want); !reflect.DeepEqual(g, w) {
					t.Errorf("run at GOMAXPROCS=%d differs from the GOMAXPROCS=1 run:\n%+v\n%+v", parallel, g, w)
				}
				if got.RecoveryTime != want.RecoveryTime {
					t.Errorf("recovery time %v, want %v", got.RecoveryTime, want.RecoveryTime)
				}

				kinds := map[setupKind]int{}
				for key, e := range sh.setups.built {
					if e.err != nil || e.sys == nil {
						t.Errorf("set-up %+v: %v", key, e.err)
					}
					kinds[key.kind]++
				}
				if !reflect.DeepEqual(kinds, tl.setups) {
					t.Errorf("set-ups built per kind = %v, want %v", kinds, tl.setups)
				}
			})
		}
	}
}

// TestFailureFreeSolveBuildsNoSetUp: the table is lazy — a solve that meets
// no failure leaves it nil.
func TestFailureFreeSolveBuildsNoSetUp(t *testing.T) {
	sh := new(solveShared)
	if _, err := sh.solve(stormBase(t, StrategyESR)); err != nil {
		t.Fatal(err)
	}
	if sh.setups.built != nil {
		t.Fatalf("failure-free solve built %d recovery set-ups", len(sh.setups.built))
	}
}

// TestRecoveryAllocationsIndependentOfRowLength: allocations of a solve
// with one ψ = 3 event minus those of its failure-free twin stay under a
// fixed bound per recovery mode — per-rank compact matrices, kernels,
// exchangers and inner-PCG vectors, the adopter's preconditioner blocks and
// compact view of the failed rows (built once per shrink: at most 983
// allocations over the kernel kinds, under band and auto, where each band
// block carves its run offsets from one arena; 880 under csr), one shared
// set-up —
// on a 5-entries-per-row and on a ≈ 70-entries-per-row matrix alike. An
// extraction or plan built per rank, or through a
// per-entry builder, breaks it (through the builder these events cost
// 4 900–8 500 allocations).
func TestRecoveryAllocationsIndependentOfRowLength(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; gate runs in the non-race job")
	}
	matrices := []struct {
		name string
		a    *sparse.CSR
	}{
		{"poisson2d", matgen.Poisson2D(48, 48)},
		{"audikw-like", matgen.AudikwLike(8, 8, 8, 3, 3)},
	}
	modes := []struct {
		name  string
		mut   func(*Config)
		bound float64
	}{
		{"esr", func(cfg *Config) { cfg.Strategy = StrategyESR }, 600},
		{"esrp", func(cfg *Config) { cfg.Strategy = StrategyESRP; cfg.T = 10 }, 600},
		{"shrink", func(cfg *Config) { cfg.Strategy = StrategyESRP; cfg.T = 10; cfg.NoSpareNodes = true }, 1450},
	}
	for _, m := range matrices {
		for _, mode := range modes {
			t.Run(m.name+"/"+mode.name, func(t *testing.T) {
				b, _ := matgen.RHSForSolution(m.a, 4)
				cfg := Config{A: m.a, B: b, Nodes: 8, Rtol: 1e-300, MaxIter: 40, Phi: 3, kernel: testKernel(t)}
				mode.mut(&cfg)
				prep, err := Prepare(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Prepared = prep
				cfg.Workspace = NewWorkspace()
				solve := func(failures []FailureSpec) {
					c := cfg
					c.Failures = failures
					res, err := Solve(c)
					if err != nil {
						t.Fatal(err)
					}
					if len(res.Events) != len(failures) {
						t.Fatalf("%d of %d events fired", len(res.Events), len(failures))
					}
				}
				event := []FailureSpec{{Iteration: 25, Ranks: []int{2, 3, 4}}}
				solve(event) // warm the workspace, pools and arena banks
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				with := testing.AllocsPerRun(3, func() { solve(event) })
				without := testing.AllocsPerRun(3, func() { solve(nil) })
				t.Logf("one event adds %.0f allocations (%.0f with, %.0f without)", with-without, with, without)
				if with-without > mode.bound {
					t.Errorf("one ψ = 3 event adds %.0f allocations, bound %.0f", with-without, mode.bound)
				}
			})
		}
	}
}
