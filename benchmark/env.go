package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"esrp/internal/obs"
)

// stamp identifies the environment a number was measured in. It goes into
// every output: the printed report, report.json and each trace file.
type stamp struct {
	Revision   string `json:"vcs_revision,omitempty"`
	Modified   bool   `json:"vcs_modified,omitempty"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Scale      string `json:"scale"`
	Seconds    int    `json:"seconds"`
	TempFS     string `json:"temp_fs"` // filesystem under the cache directories
	Setups     int    `json:"setups,omitempty"`
	Passes     int    `json:"passes,omitempty"` // timed passes of this run
}

func newStamp(seed int64, scale string, seconds int, tempDir string) stamp {
	b := obs.CurrentBuild()
	return stamp{
		Revision: b.Revision, Modified: b.Modified, GoVersion: b.GoVersion,
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed: seed, Scale: scale, Seconds: seconds, TempFS: fsType(tempDir),
	}
}

func (s stamp) String() string {
	rev := s.Revision
	if rev == "" {
		rev = "no-vcs"
	}
	if s.Modified {
		rev += "+dirty"
	}
	text := fmt.Sprintf("rev %s, %s, NumCPU %d, GOMAXPROCS %d, seed %d, scale %s, %d s per run, temp dirs on %s (cache reads are page-cache reads)",
		rev, s.GoVersion, s.NumCPU, s.GoMaxProcs, s.Seed, s.Scale, s.Seconds, s.TempFS)
	if s.Passes > 0 {
		text += fmt.Sprintf(", %d set-ups, %d timed passes", s.Setups, s.Passes)
	}
	return text
}

// setProcs applies the benchmark's convention GOMAXPROCS = min(NumCPU, 4),
// which never oversubscribes the host: every BENCH_PR*.json row of this repo
// came from a 1-CPU host running more threads than cores. For a one-off
// 1-core diagnostic use taskset, which NumCPU observes.
func setProcs(stderr io.Writer) {
	ncpu := runtime.NumCPU()
	runtime.GOMAXPROCS(min(ncpu, 4))
	if ncpu < 2 {
		fmt.Fprintln(stderr, "benchmark: WARNING: NumCPU < 2 — rank goroutines and campaign workers share one core; compare these numbers only with other 1-CPU runs")
	}
}

// repoRoot finds the checkout root from the working directory: the driver
// and `go run ./benchmark` start there, `go test` starts in benchmark/.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found: run from the repository root")
}

// outDir is where traces, reports and temporary cache directories go. It
// lies inside the checkout and is ignored by git.
func outDir(root string) string { return filepath.Join(root, "benchmark", "out") }
