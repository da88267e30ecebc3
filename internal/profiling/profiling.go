// Package profiling wires the standard -cpuprofile/-memprofile flags into
// the command-line binaries, so future performance work can profile
// esrpbench and esrpcampaign without patching them.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
)

// Start begins CPU profiling into cpuPath (if non-empty) and returns a stop
// function that finishes the CPU profile and writes a heap profile to
// memPath (if non-empty). The heap is GC-settled first, so the profile's
// in-use samples reflect live objects and its alloc samples count every
// allocation since process start — the view the zero-alloc work reads with
// `go tool pprof -sample_index=alloc_space` (or alloc_objects). The stop
// function is idempotent: the first call finalizes the profiles and reports
// any error, later calls are no-ops returning the first call's error — so
// the binaries' error paths (which both defer stop and call it before
// os.Exit) cannot corrupt a profile by stopping twice.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("profiling: %w", err)
		}
	}
	var once sync.Once
	var stopErr error
	return func() error {
		once.Do(func() { stopErr = finish(cpuFile, memPath) })
		return stopErr
	}, nil
}

// finish finalizes the CPU profile and writes the heap snapshot.
func finish(cpuFile *os.File, memPath string) error {
	if cpuFile != nil {
		pprof.StopCPUProfile()
		if err := cpuFile.Close(); err != nil {
			return fmt.Errorf("profiling: %w", err)
		}
	}
	if memPath == "" {
		return nil
	}
	f, err := os.Create(memPath)
	if err != nil {
		return fmt.Errorf("profiling: %w", err)
	}
	runtime.GC() // settle the heap so the profile reflects live data
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("profiling: %w", err)
	}
	return f.Close()
}
