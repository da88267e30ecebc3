package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"esrp/internal/matgen"
	"esrp/internal/obs"
	"esrp/internal/replay"
)

// solveFingerprint is everything a solve hands to the layers above, as
// bits and bytes: the golden suite's record, the Result fields it leaves
// out, the recorded schedule as the cache stores it and the Chrome trace as
// the CLIs write it.
type solveFingerprint struct {
	Record                           goldenRecord
	RelResidual, RecoveryTime, Drift uint64
	WastedIters, RecoveredAt, Active int
	Recovered                        bool
	Kernels                          []string
	Schedule, Chrome                 []byte
}

func fingerprint(t *testing.T, cfg Config) solveFingerprint {
	t.Helper()
	rec := replay.NewRecorder()
	cfg.Record = rec
	cfg.Observe = &obs.Options{Trace: true, Series: true}
	res, err := Solve(cfg)
	if err != nil {
		t.Error(err) // not Fatal: concurrent solves call this off the test goroutine
		return solveFingerprint{}
	}
	fp := solveFingerprint{
		Record:       recordOf(res),
		RelResidual:  math.Float64bits(res.RelResidual),
		RecoveryTime: math.Float64bits(res.RecoveryTime),
		Drift:        math.Float64bits(res.Drift),
		WastedIters:  res.WastedIters, RecoveredAt: res.RecoveredAt, Active: res.ActiveNodes,
		Recovered: res.Recovered,
		Kernels:   res.Kernels,
	}
	if fp.Schedule, err = rec.Schedule().EncodeBinary(); err != nil {
		t.Error(err)
	}
	res.Trace.Build = obs.BuildInfo{} // toolchain and revision are not the solver's
	var buf bytes.Buffer
	if err := res.Trace.WriteChrome(&buf); err != nil {
		t.Error(err)
	}
	fp.Chrome = buf.Bytes()
	return fp
}

// TestWorkerCountIndependence pins that nothing a solve produces depends on
// how many workers the cluster ran its ranks on: the five golden scenarios
// and a spare-then-two-shrinks timeline are solved
// at GOMAXPROCS 1, 2 and 4 — one worker, and ranks of one solve genuinely in
// parallel — and as two concurrent solves that share the Ps, and every run
// must match the first in Result bits, recorded-schedule bytes and Chrome
// trace bytes. The CI multicore legs run it under -race.
func TestWorkerCountIndependence(t *testing.T) {
	type scenario struct {
		name string
		cfg  Config
	}
	var scenarios []scenario
	for name, cfg := range localPathScenarios(t) {
		scenarios = append(scenarios, scenario{name, cfg})
	}
	sort.Slice(scenarios, func(i, j int) bool { return scenarios[i].name < scenarios[j].name })

	shrink := stormBase(t, StrategyESRP)
	shrink.kernel = testKernel(t)
	spareThenTwoShrinks(&shrink)
	scenarios = append(scenarios, scenario{"esrp-spare-then-two-shrinks", shrink})

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			var want solveFingerprint
			check := func(how string, got solveFingerprint) {
				t.Helper()
				switch {
				case !reflect.DeepEqual(got.Record, want.Record):
					t.Errorf("%s: golden record differs from the GOMAXPROCS=1 run:\n%+v\n%+v", how, got.Record, want.Record)
				case !bytes.Equal(got.Schedule, want.Schedule):
					t.Errorf("%s: recorded schedule differs from the GOMAXPROCS=1 run (%d vs %d bytes)", how, len(got.Schedule), len(want.Schedule))
				case !bytes.Equal(got.Chrome, want.Chrome):
					t.Errorf("%s: Chrome trace differs from the GOMAXPROCS=1 run (%d vs %d bytes)", how, len(got.Chrome), len(want.Chrome))
				case !reflect.DeepEqual(got, want):
					t.Errorf("%s: result fields differ from the GOMAXPROCS=1 run:\n%+v\n%+v", how, got, want)
				}
			}
			for _, procs := range []int{1, 2, 4} {
				func() {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					got := fingerprint(t, sc.cfg)
					if procs == 1 {
						want = got
						if failures := len(sc.cfg.Failures); len(want.Record.Events) != failures {
							t.Fatalf("%d recovery events, want %d: %+v", len(want.Record.Events), failures, want.Record.Events)
						}
						return
					}
					check(fmt.Sprintf("GOMAXPROCS=%d", procs), got)
				}()
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
			var both [2]solveFingerprint
			var wg sync.WaitGroup
			for i := range both {
				wg.Add(1)
				go func() {
					defer wg.Done()
					both[i] = fingerprint(t, sc.cfg)
				}()
			}
			wg.Wait()
			for i, got := range both {
				check(fmt.Sprintf("concurrent solve %d of 2", i+1), got)
			}
		})
	}
}

// TestWideSolveNeverDeadlocks runs the paper's 128-process shape — a few
// rows per rank, every rank blocked most of the time — at GOMAXPROCS 1, 2
// and 4: the cluster's deadlock detection must never mistake workers that
// wait for each other for ranks that wait for nothing.
func TestWideSolveNeverDeadlocks(t *testing.T) {
	a := matgen.Poisson2D(32, 32)
	b, _ := matgen.RHSForSolution(a, 5)
	cfg := Config{
		A: a, B: b, Nodes: 128, Rtol: 1e-8, CostModel: fastModel(), kernel: testKernel(t),
		Strategy: StrategyESRP, T: 10, Phi: 2,
		Failures: []FailureSpec{{Iteration: 25, Ranks: []int{63, 64}}},
		Observe:  &obs.Options{Series: true},
	}
	var want goldenRecord
	for _, procs := range []int{1, 2, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			res, err := Solve(cfg)
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
			}
			if !res.Converged || len(res.Events) != 1 {
				t.Fatalf("GOMAXPROCS=%d: converged %v, %d recovery events", procs, res.Converged, len(res.Events))
			}
			if procs == 1 {
				want = recordOf(res)
			} else if got := recordOf(res); !reflect.DeepEqual(got, want) {
				t.Errorf("GOMAXPROCS=%d differs from the GOMAXPROCS=1 run:\n%+v\n%+v", procs, got, want)
			}
		}()
	}
}
