package profiling

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestStartNoOp(t *testing.T) {
	stop, err := Start("", "")
	if err != nil {
		t.Fatalf("Start with no paths: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
}

// The heap profile carries the allocation samples too (pprof's
// -sample_index=alloc_space and alloc_objects), so it is the one allocation
// profile the binaries write.
func TestCPUAndHeapProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	// Burn a little CPU and heap so the profiles have something to sample.
	s := 0.0
	for i := 0; i < 1_000_000; i++ {
		s += float64(i % 7)
	}
	_ = s
	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
	f, err := os.Open(mem)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	for _, sample := range []string{"alloc_objects", "alloc_space", "inuse_space"} {
		if !bytes.Contains(proto, []byte(sample)) {
			t.Errorf("heap profile has no %s samples", sample)
		}
	}
}

func TestStopIdempotent(t *testing.T) {
	dir := t.TempDir()
	stop, err := Start(filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof"))
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatalf("first stop: %v", err)
	}
	// A second stop must not re-run StopCPUProfile or rewrite the heap
	// profile — it returns the first call's (nil) error.
	if err := stop(); err != nil {
		t.Fatalf("second stop: %v", err)
	}
}

func TestStopErrorSticky(t *testing.T) {
	dir := t.TempDir()
	// The heap profile targets a path whose parent does not exist, so the
	// stop fails; the failure must repeat verbatim instead of turning into
	// a spurious success.
	stop, err := Start("", filepath.Join(dir, "missing", "mem.pprof"))
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	first := stop()
	if first == nil {
		t.Fatal("stop with unwritable heap path succeeded")
	}
	if second := stop(); second != first {
		t.Errorf("second stop returned %v, want the sticky first error %v", second, first)
	}
}

func TestStartBadCPUPath(t *testing.T) {
	dir := t.TempDir()
	if _, err := Start(filepath.Join(dir, "missing", "cpu.pprof"), ""); err == nil {
		t.Fatal("Start with unwritable CPU path succeeded")
	}
}
