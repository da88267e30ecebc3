package esrp_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fusedOp matches the fused multiply-add opcodes of x86 assembly (VFMADD*,
// VFMSUB*, VFNMADD*, VFNMSUB*, their packed, scalar and alternating forms).
var fusedOp = regexp.MustCompile(`(?i)^\s*(?:\w+:\s*)?VFN?M(?:ADD|SUB)\w*\b`)

// TestNoFusedMultiplyAddInAssembly scans every *_amd64.s file of the module
// for fused multiply-adds. The assembly kernels must round each product and
// then each sum exactly as the portable Go loops do: the golden
// trajectories, replay == live and the pinned schedules hold those bits, and
// a fused operation is a different sum.
func TestNoFusedMultiplyAddInAssembly(t *testing.T) {
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, "_amd64.s") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"internal/sparse/band_amd64.s": false, "internal/dense/solvequad_amd64.s": false}
	for _, path := range files {
		if _, ok := want[filepath.ToSlash(path)]; ok {
			want[filepath.ToSlash(path)] = true
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			code, _, _ := strings.Cut(line, "//")
			if fusedOp.MatchString(code) {
				t.Errorf("%s:%d: fused multiply-add %q", path, i+1, strings.TrimSpace(code))
			}
		}
	}
	for path, seen := range want {
		if !seen {
			t.Errorf("%s not found: the scan would pass without the kernels it exists for", path)
		}
	}
}
