package ccache

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"esrp/internal/cluster"
	"esrp/internal/core"
	"esrp/internal/matgen"
	"esrp/internal/obs"
	"esrp/internal/precond"
	"esrp/internal/replay"
	"esrp/internal/sparse"
)

// goldenInput is a fixed cell input used to pin the canonical encoding.
func goldenInput() CellInput {
	var m [32]byte
	for i := range m {
		m[i] = byte(i)
	}
	return CellInput{
		Matrix:   m,
		Nodes:    8,
		Strategy: core.StrategyESRP,
		T:        20,
		Phi:      1,
		Seed:     42,
		Events: []core.FailureSpec{
			{Iteration: 30, Ranks: []int{2, 3}},
			{Iteration: 75, Ranks: []int{5}},
		},
		Spares:   2,
		Rtol:     1e-8,
		MaxIter:  0,
		MaxBlock: 10,
		Precond:  precond.BlockJacobi,
		Kernel:   sparse.KernelAuto,
	}
}

// TestKeyGolden pins the canonical key encoding byte-for-byte. If this
// test fails, the encoding changed: every existing cache entry on every
// machine silently misses. That may be intended (then bump keyVersion and
// re-pin here), but it must never happen by accident — a field rename,
// reorder, or width change all land here.
func TestKeyGolden(t *testing.T) {
	const want = "1d3f56373eb6e84e47cfeeb0ffe6764eaf2248f8669c3d61c6302c9d36239eee"
	in := goldenInput()
	k := in.Key()
	if got := hex.EncodeToString(k[:]); got != want {
		t.Fatalf("canonical key changed:\n got %s\nwant %s\n(bump keyVersion if intentional)", got, want)
	}
}

// Every field of CellInput must perturb the key — a field the encoder
// skips would alias distinct cells onto one entry.
func TestKeyFieldSensitivity(t *testing.T) {
	base := goldenInput().Key()
	mutations := map[string]func(*CellInput){
		"Matrix":       func(in *CellInput) { in.Matrix[0] ^= 1 },
		"Nodes":        func(in *CellInput) { in.Nodes++ },
		"Strategy":     func(in *CellInput) { in.Strategy = core.StrategyIMCR },
		"T":            func(in *CellInput) { in.T++ },
		"Phi":          func(in *CellInput) { in.Phi++ },
		"Seed":         func(in *CellInput) { in.Seed++ },
		"EventIter":    func(in *CellInput) { in.Events[0].Iteration++ },
		"EventRanks":   func(in *CellInput) { in.Events[1].Ranks = []int{6} },
		"EventDropped": func(in *CellInput) { in.Events = in.Events[:1] },
		"EventsNilVsEmpty is NOT distinct — both encode zero events": nil,
		"Spares":   func(in *CellInput) { in.Spares++ },
		"Rtol":     func(in *CellInput) { in.Rtol = 1e-10 },
		"MaxIter":  func(in *CellInput) { in.MaxIter = 500 },
		"MaxBlock": func(in *CellInput) { in.MaxBlock++ },
		"Precond":  func(in *CellInput) { in.Precond = precond.Jacobi },
		"Kernel":   func(in *CellInput) { in.Kernel = sparse.KernelCSR },
	}
	for name, mutate := range mutations {
		if mutate == nil {
			continue
		}
		in := goldenInput()
		mutate(&in)
		if in.Key() == base {
			t.Errorf("mutating %s left the key unchanged", name)
		}
	}
	// Field boundaries are tagged: shifting a value between adjacent
	// fields must not collide.
	a, b := goldenInput(), goldenInput()
	a.T, a.Phi = 5, 7
	b.T, b.Phi = 7, 5
	if a.Key() == b.Key() {
		t.Error("swapping T and Phi collided")
	}
}

func TestMatrixDigestSensitivity(t *testing.T) {
	a := matgen.Poisson2D(8, 8)
	b := matgen.RHSOnes(a.Rows)
	d0 := MatrixDigest(a, b)
	if MatrixDigest(a, b) != d0 {
		t.Fatal("digest is not deterministic")
	}
	a2 := matgen.Poisson2D(8, 8)
	a2.Val[0] += 1e-12
	if MatrixDigest(a2, b) == d0 {
		t.Error("value perturbation did not change the digest")
	}
	b2 := append([]float64(nil), b...)
	b2[len(b2)-1] = 2
	if MatrixDigest(a, b2) == d0 {
		t.Error("rhs perturbation did not change the digest")
	}
}

func testBuild() obs.BuildInfo {
	return obs.BuildInfo{GoVersion: "go1.99", Revision: "abc123"}
}

func openTestCache(t *testing.T) *Cache {
	t.Helper()
	c, note, err := Open(t.TempDir(), testBuild(), MismatchBypass)
	if err != nil {
		t.Fatal(err)
	}
	if note != "" {
		t.Fatalf("fresh cache produced a note: %s", note)
	}
	if c == nil {
		t.Fatal("fresh cache is nil")
	}
	return c
}

func testEntry() *ResultEntry {
	return &ResultEntry{
		Model: cluster.DefaultCostModel(),
		Result: CellResult{
			Converged: true, Iterations: 123, TotalSteps: 130,
			RelResidual: 9.87e-9, SimTime: 0.0123456789, RecoveryTime: 0.001,
			WastedIters: 7, Drift: 1e-12, MaxNodeBytes: 4096, HaloBytes: 2048,
			BytesSent: 65536, ActiveNodes: 8, Kernels: "band+sellc×8",
			Recoveries: []core.RecoveryEvent{{Iteration: 30, Ranks: []int{2, 3}, Mode: core.RecoverySpare, RecoveredAt: 20, WastedIters: 7, SparesLeft: -1, ActiveNodes: 8}},
		},
	}
}

// testSchedule records two ranks: rank 0 computes and sends 64 bytes to
// rank 1, which receives them; one view holds both.
func testSchedule() *replay.Schedule {
	rec := replay.NewRecorder()
	rec.Init(2)
	rec.RegisterView([]int{0, 1})
	rec.Rank(0).Compute(replay.WorkVec, 1.5)
	rec.Rank(0).Send(1, 64)
	rec.Rank(1).Recv(0)
	return rec.Schedule()
}

func TestScheduleRoundTrip(t *testing.T) {
	c := openTestCache(t)
	k := goldenInput().Key()
	if _, ok := c.GetSchedule(k); ok {
		t.Fatal("hit on an empty cache")
	}
	want := testSchedule()
	if err := c.PutSchedule(k, want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.GetSchedule(k)
	if !ok {
		t.Fatal("miss after put")
	}
	wb, _ := want.EncodeBinary()
	gb, _ := got.EncodeBinary()
	if !bytes.Equal(wb, gb) {
		t.Fatal("schedule did not round-trip bit-exactly")
	}
}

// Corruption must read as a miss (and count), never a crash or a wrong
// answer: truncation, trailing bytes, a flipped payload byte, a flipped
// checksum, a wrong magic, a length no file carries, and garbage all land on
// the recompute path, and none of them costs more memory than the file's
// own bytes (a header's length is never trusted to size a buffer).
func TestCorruptionIsAMiss(t *testing.T) {
	corruptions := map[string]func([]byte) []byte{
		"truncated-header":  func(b []byte) []byte { return b[:frameHeaderLen-2] },
		"truncated-payload": func(b []byte) []byte { return b[:len(b)-3] },
		"trailing-bytes":    func(b []byte) []byte { return append(b, 0) },
		"flipped-byte":      func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b },
		"flipped-crc":       func(b []byte) []byte { b[16] ^= 0xff; return b },
		"wrong-magic":       func(b []byte) []byte { copy(b, "NOTESRP!"); return b },
		"empty":             func(b []byte) []byte { return nil },
		"huge-declared-length": func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:], 1<<40)
			return b[:30]
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			c := openTestCache(t)
			k := goldenInput().Key()
			if err := c.PutResult(k, testEntry()); err != nil {
				t.Fatal(err)
			}
			if err := c.PutSchedule(k, testSchedule()); err != nil {
				t.Fatal(err)
			}
			for _, path := range []string{
				string(c.entryPath(nil, resultTierDir, k, ".res")),
				string(c.entryPath(nil, scheduleTierDir, k, ".sched")),
			} {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, corrupt(data), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, ok := c.GetResult(k); ok {
				t.Error("corrupt result entry was trusted")
			}
			if _, ok := c.GetSchedule(k); ok {
				t.Error("corrupt schedule entry was trusted")
			}
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
				t.Errorf("reading two corrupt entries allocated %d bytes", n)
			}
			if st := c.Stats(); st.Corrupt != 2 {
				t.Errorf("corrupt counter = %d, want 2", st.Corrupt)
			}
			// The miss is recoverable: a fresh put replaces the bad entry.
			if err := c.PutResult(k, testEntry()); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.GetResult(k); !ok {
				t.Error("re-put after corruption still misses")
			}
		})
	}
}

// A corrupted frame whose payload still validates but decodes to garbage
// (schedule tier): the decoder's own guards classify it as corrupt. So does
// an entry of a format before ESRPRPL3, which a cache written by an older
// build holds: it is a counted miss, and the cell re-solves once.
func TestUndecodableScheduleIsAMiss(t *testing.T) {
	c := openTestCache(t)
	k := goldenInput().Key()
	for i, payload := range []string{
		"not a schedule",
		"ESRPRPL1\x01\x00\x01\x0e",             // one rank, one RTFinal event
		"ESRPRPL2\x01\x00\x01\x01\x0e\x01\x00", // one rank, one block of one RTFinal event
	} {
		if err := writeFileAtomic(string(c.entryPath(nil, scheduleTierDir, k, ".sched")), frame([]byte(payload))); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.GetSchedule(k); ok {
			t.Fatalf("undecodable schedule %q was trusted", payload)
		}
		if st := c.Stats(); st.Corrupt != int64(i+1) {
			t.Fatalf("%q: corrupt counter = %d, want %d", payload, st.Corrupt, i+1)
		}
	}
}

func TestNilCacheIsInert(t *testing.T) {
	var c *Cache
	k := goldenInput().Key()
	if _, ok := c.GetResult(k); ok {
		t.Error("nil cache hit")
	}
	if _, ok := c.GetSchedule(k); ok {
		t.Error("nil cache hit")
	}
	if err := c.PutResult(k, testEntry()); err != nil {
		t.Error(err)
	}
	if err := c.PutSchedule(k, testSchedule()); err != nil {
		t.Error(err)
	}
	if c.Stats() != (IOStats{}) {
		t.Error("nil cache carries state")
	}
}

// A cache dir stamped by a different build must never be silently mixed:
// bypass runs cold and leaves it alone, refresh wipes and restamps.
func TestBuildMismatch(t *testing.T) {
	dir := t.TempDir()
	c1, _, err := Open(dir, testBuild(), MismatchBypass)
	if err != nil {
		t.Fatal(err)
	}
	k := goldenInput().Key()
	if err := c1.PutResult(k, testEntry()); err != nil {
		t.Fatal(err)
	}

	other := obs.BuildInfo{GoVersion: "go1.99", Revision: "def456"}
	c2, note, err := Open(dir, other, MismatchBypass)
	if err != nil {
		t.Fatal(err)
	}
	if c2 != nil {
		t.Fatal("bypass returned a usable cache for a foreign build")
	}
	if note == "" {
		t.Fatal("bypass was silent")
	}
	// Bypass left the original entries intact.
	c1b, note, err := Open(dir, testBuild(), MismatchBypass)
	if err != nil || note != "" || c1b == nil {
		t.Fatalf("reopening with the original build: cache=%v note=%q err=%v", c1b, note, err)
	}
	if _, ok := c1b.GetResult(k); !ok {
		t.Fatal("bypass damaged the original cache")
	}

	c3, note, err := Open(dir, other, MismatchRefresh)
	if err != nil {
		t.Fatal(err)
	}
	if c3 == nil || note == "" {
		t.Fatalf("refresh: cache=%v note=%q", c3, note)
	}
	if _, ok := c3.GetResult(k); ok {
		t.Fatal("refresh kept a foreign build's entry")
	}
	// The refreshed stamp is the new build's.
	c4, note, err := Open(dir, other, MismatchBypass)
	if err != nil || note != "" || c4 == nil {
		t.Fatalf("reopening after refresh: cache=%v note=%q err=%v", c4, note, err)
	}

	// The same build at the previous format is a mismatch too.
	if err := c4.PutResult(k, testEntry()); err != nil {
		t.Fatal(err)
	}
	if err := stampManifest(filepath.Join(dir, manifestName), Manifest{Format: FormatVersion - 1, Build: other}); err != nil {
		t.Fatal(err)
	}
	if c5, note, err := Open(dir, other, MismatchBypass); err != nil || c5 != nil || !strings.Contains(note, fmt.Sprintf("format %d,", FormatVersion-1)) {
		t.Fatalf("bypassing the previous format: cache=%v note=%q err=%v", c5, note, err)
	}
	c6, note, err := Open(dir, other, MismatchRefresh)
	if err != nil || c6 == nil || note == "" {
		t.Fatalf("refreshing the previous format: cache=%v note=%q err=%v", c6, note, err)
	}
	if _, ok := c6.GetResult(k); ok {
		t.Fatal("refresh kept an entry of the previous format")
	}
}

// An unreadable manifest means unknown provenance — handled exactly like
// a mismatch.
func TestGarbageManifest(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, note, err := Open(dir, testBuild(), MismatchBypass)
	if err != nil {
		t.Fatal(err)
	}
	if c != nil || note == "" {
		t.Fatalf("garbage manifest: cache=%v note=%q", c, note)
	}
}

// The -schedules export and the schedule tier share one format, and
// ReadScheduleFile reads nothing else: a bare ESRPRPL3 stream is rejected.
func TestScheduleFileFormats(t *testing.T) {
	dir := t.TempDir()
	want := testSchedule()
	wb, err := want.EncodeBinary()
	if err != nil {
		t.Fatal(err)
	}

	framed := filepath.Join(dir, "framed.sched")
	if err := WriteScheduleFile(framed, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadScheduleFile(framed)
	if err != nil {
		t.Fatal(err)
	}
	gb, _ := got.EncodeBinary()
	if !bytes.Equal(wb, gb) {
		t.Fatal("framed schedule file did not round-trip")
	}

	bare := filepath.Join(dir, "bare.sched")
	if err := os.WriteFile(bare, wb, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadScheduleFile(bare); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bare ESRPRPL3 stream: got %v, want ErrCorrupt", err)
	}

	bad := filepath.Join(dir, "bad.sched")
	if err := os.WriteFile(bad, append([]byte(frameMagic), 1, 2, 3), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadScheduleFile(bad); err == nil {
		t.Fatal("truncated framed file accepted")
	}

	// A valid frame vouches for its bytes, not for the length fields inside
	// them: 15 bytes announcing 2³² blocks must be an error, not a 200 GB
	// allocation.
	huge := filepath.Join(dir, "huge.sched")
	if err := os.WriteFile(huge, frame([]byte("ESRPRPL3\x01\x00\x80\x80\x80\x80\x10")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadScheduleFile(huge); err == nil || errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("framed schedule with an implausible block count: got %v, want a decode error", err)
	}
}
