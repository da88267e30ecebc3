// Package ccache is the persistent, content-addressed store for campaign
// artifacts: every cell of a sweep is a deterministic pure function of its
// inputs (the repo's oldest pinned invariant — byte-identical reports at
// any worker count), so its outputs can be addressed by a digest of those
// inputs and reused across process lifetimes. The store has two tiers
// under one key (see CellInput — the machine model is deliberately
// excluded from it):
//
//   - the result tier holds the condensed per-cell result together with
//     the cluster.CostModel it was computed under — an exact-model hit
//     fills the report cell with zero solves;
//   - the schedule tier holds the solve's recorded event schedule
//     (replay's ESRPRPL3 binary encoding: per rank, its distinct blocks of
//     events and a reference per block occurrence) — a model mismatch
//     re-costs the schedule in O(events) via Schedule.Recost instead of
//     re-solving, and a sampled cell's trace is a walk of it, so one cold
//     sweep serves every machine point and every trace forever after. An
//     entry of an earlier encoding (ESRPRPL1, ESRPRPL2) fails to decode and
//     counts as corrupt: its cell is solved once more and rewritten.
//
// Entries are framed (length + CRC-32) and written atomically, so an
// interrupted sweep resumes safely: complete entries are reused, partial
// or corrupted ones are detected and recomputed, never trusted. A
// manifest stamps the build that produced the cache; a mismatching build
// bypasses or refreshes the directory, loudly, never silently mixes.
package ccache

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"esrp/internal/cluster"
	"esrp/internal/core"
	"esrp/internal/obs"
	"esrp/internal/replay"
)

// FormatVersion is the on-disk layout version, stamped into the manifest.
// Layout changes bump it; an old-format directory is treated exactly like
// a build mismatch. Format 1 stored result entries as JSON; format 2 stores
// them as binary records (frame.go).
const FormatVersion = 2

// manifestName is the stamp file at the cache root.
const manifestName = "MANIFEST.json"

// Tier subdirectories under the cache root. Entries shard by the first
// two hex digits of their key so no single directory grows unbounded.
const (
	resultTierDir   = "res"
	scheduleTierDir = "sch"
)

// Manifest identifies the build and layout a cache directory was written
// by. It is stamped on first open and checked on every subsequent one.
type Manifest struct {
	Format int           `json:"format"`
	Build  obs.BuildInfo `json:"build"`
}

// MismatchPolicy selects what Open does when the directory's manifest was
// stamped by a different build (or an older format).
type MismatchPolicy int

const (
	// MismatchBypass keeps the directory untouched and opens no cache
	// (Open returns nil — every method on a nil *Cache is a safe no-op),
	// so the run computes everything fresh without mixing provenances.
	MismatchBypass MismatchPolicy = iota
	// MismatchRefresh deletes both tiers and restamps the manifest with
	// the current build, then opens the now-empty cache.
	MismatchRefresh
)

// CellResult is the condensed, report-shaped outcome of one cell — the
// exact fields internal/campaign copies out of core.Result. Everything
// here except SimTime and RecoveryTime is machine-independent (traffic
// counters measure payload bytes, recovery events carry iterations and
// ranks); the two simulated times are valid only under ResultEntry.Model
// and are re-derived from the schedule tier for any other machine.
type CellResult struct {
	Converged    bool                 `json:"converged"`
	Iterations   int                  `json:"iterations"`
	TotalSteps   int                  `json:"total_steps"`
	RelResidual  float64              `json:"rel_residual"`
	SimTime      float64              `json:"sim_time_s"`
	RecoveryTime float64              `json:"recovery_time_s"`
	WastedIters  int                  `json:"wasted_iters"`
	Drift        float64              `json:"drift"`
	MaxNodeBytes int64                `json:"max_node_bytes"`
	HaloBytes    int64                `json:"halo_bytes"`
	BytesSent    int64                `json:"bytes_sent"`
	ActiveNodes  int                  `json:"active_nodes"`
	Kernels      string               `json:"kernels,omitempty"`
	Recoveries   []core.RecoveryEvent `json:"recoveries,omitempty"`
}

// ResultEntry is one result-tier entry: the condensed cell outcome plus
// the machine model its simulated times were computed under. Its record
// (appendResultEntry) stores every float as its bits, so a cache hit
// reproduces the cold run's report bytes bit-for-bit.
type ResultEntry struct {
	Model  cluster.CostModel `json:"model"`
	Result CellResult        `json:"result"`
}

// IOStats is a point-in-time snapshot of the cache's raw I/O counters.
// Hit/miss classification lives with the campaign engine (it decides
// which tier satisfies a cell); the cache itself counts bytes and
// rejected entries.
type IOStats struct {
	BytesRead    int64 // framed bytes of successfully validated entries
	BytesWritten int64 // framed bytes written (both tiers)
	Corrupt      int64 // entries rejected by frame validation or decoding
}

// Cache is an open cache directory. The zero value is unusable; obtain
// one from Open. A nil *Cache is fully inert: every method no-ops (Get
// misses, Put discards), so callers thread one handle unconditionally —
// the same contract obs, hostobs and replay recorders follow.
type Cache struct {
	dir     string
	digests digestMemo

	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
	corrupt      atomic.Int64
}

// Open opens (creating if absent) the cache directory and verifies its
// provenance manifest against build. On a mismatch it applies policy and
// returns a non-empty human-readable note describing what happened — the
// caller is expected to surface it (the CLI prints it to stderr). With
// MismatchBypass the returned cache is nil (inert); the error return is
// reserved for real I/O failures.
func Open(dir string, build obs.BuildInfo, policy MismatchPolicy) (*Cache, string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, "", err
	}
	want := Manifest{Format: FormatVersion, Build: build}
	mpath := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(mpath)
	switch {
	case os.IsNotExist(err):
		if err := stampManifest(mpath, want); err != nil {
			return nil, "", err
		}
		return &Cache{dir: dir}, "", nil
	case err != nil:
		return nil, "", err
	}
	var have Manifest
	if uerr := json.Unmarshal(data, &have); uerr == nil && have == want {
		return &Cache{dir: dir}, "", nil
	}
	// Unreadable manifests are handled like mismatches: the directory's
	// provenance is unknown, so its entries cannot be trusted.
	switch policy {
	case MismatchRefresh:
		for _, tier := range []string{resultTierDir, scheduleTierDir} {
			if err := os.RemoveAll(filepath.Join(dir, tier)); err != nil {
				return nil, "", err
			}
		}
		if err := stampManifest(mpath, want); err != nil {
			return nil, "", err
		}
		note := fmt.Sprintf("cache %s was written by %s; refreshed (entries discarded, restamped as %s)",
			dir, describeManifest(data, have), describeManifest(nil, want))
		return &Cache{dir: dir}, note, nil
	default:
		note := fmt.Sprintf("cache %s was written by %s, this binary is %s; bypassing it (use a refresh policy to rebuild in place)",
			dir, describeManifest(data, have), describeManifest(nil, want))
		return nil, note, nil
	}
}

func stampManifest(path string, m Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(path, append(data, '\n'))
}

func describeManifest(raw []byte, m Manifest) string {
	if m == (Manifest{}) {
		return fmt.Sprintf("an unreadable manifest (%d bytes)", len(raw))
	}
	return fmt.Sprintf("format %d, %s", m.Format, describeBuild(m.Build))
}

func describeBuild(b obs.BuildInfo) string {
	rev := b.Revision
	if rev == "" {
		rev = "no-vcs"
	} else if len(rev) > 12 {
		rev = rev[:12]
	}
	if b.Modified {
		rev += "+dirty"
	}
	return fmt.Sprintf("%s@%s", b.GoVersion, rev)
}

// Stats snapshots the raw I/O counters (zero on nil).
func (c *Cache) Stats() IOStats {
	if c == nil {
		return IOStats{}
	}
	return IOStats{
		BytesRead:    c.bytesRead.Load(),
		BytesWritten: c.bytesWritten.Load(),
		Corrupt:      c.corrupt.Load(),
	}
}

// entryPathMax is the size of the stack array an entry path is built in; a
// cache directory whose entry paths run longer costs one more allocation per
// path.
const entryPathMax = 512

// entryPath appends the path of k's entry in tier to dst. Entries shard by
// the key's first hex byte. Callers pass a stack array, so a read's path
// costs no allocation and a write's only its string.
func (c *Cache) entryPath(dst []byte, tier string, k Key, ext string) []byte {
	const sep = filepath.Separator
	dst = append(append(append(dst, c.dir...), sep), tier...)
	dst = hex.AppendEncode(append(dst, sep), k[:1])
	dst = hex.AppendEncode(append(dst, sep), k[:])
	return append(dst, ext...)
}

// readBufs recycles the buffers entries are read into: a result entry is
// decoded straight out of one, a schedule payload is copied out of it.
var readBufs = sync.Pool{New: func() any { return new([]byte) }}

// read loads and validates one framed entry into *buf and returns the
// payload, a view of *buf; (nil, false) is a miss — absent, truncated,
// tampered and undecodable entries all land there, the last three also
// counting as corrupt.
func (c *Cache) read(path []byte, buf *[]byte) ([]byte, bool) {
	data, err := readFile(path, (*buf)[:0])
	*buf = data
	if err != nil {
		return nil, false // absent (or unreadable) = plain miss
	}
	payload, err := unframe(data)
	if err != nil {
		c.corrupt.Add(1)
		return nil, false
	}
	c.bytesRead.Add(int64(len(data)))
	return payload, true
}

// GetResult fetches a result-tier entry ((nil, false) on miss or nil c).
// A miss allocates no entry: the decode goes into a local one, copied out
// on a hit.
func (c *Cache) GetResult(k Key) (*ResultEntry, bool) {
	var e ResultEntry
	if !c.LoadResult(k, &e) {
		return nil, false
	}
	hit := e
	return &hit, true
}

// LoadResult decodes k's result-tier entry into *e and reports whether it
// hit; on a miss (or nil c) *e is zeroed. The decode allocates only the
// entry's events and their ranks: Kernels is interned.
func (c *Cache) LoadResult(k Key, e *ResultEntry) bool {
	*e = ResultEntry{}
	if c == nil {
		return false
	}
	buf := readBufs.Get().(*[]byte)
	defer readBufs.Put(buf)
	var path [entryPathMax]byte
	payload, ok := c.read(c.entryPath(path[:0], resultTierDir, k, ".res"), buf)
	if !ok {
		return false
	}
	if err := decodeResultEntry(payload, e); err != nil { // copies out all it keeps
		*e = ResultEntry{}
		c.corrupt.Add(1)
		return false
	}
	return true
}

// PutResult stores a result-tier entry (no-op on nil c). An existing
// entry is replaced atomically. An event whose mode is not one of the
// core.Recovery* constants is an error, and nothing is written.
func (c *Cache) PutResult(k Key, e *ResultEntry) error {
	if c == nil {
		return nil
	}
	framed, err := appendResultEntry(make([]byte, frameHeaderLen, frameHeaderLen+recordLenMax(e)), e)
	if err != nil {
		return err
	}
	framed = seal(framed)
	var path [entryPathMax]byte
	if err := writeFileAtomic(string(c.entryPath(path[:0], resultTierDir, k, ".res")), framed); err != nil {
		return err
	}
	c.bytesWritten.Add(int64(len(framed)))
	return nil
}

// GetSchedule fetches and decodes a schedule-tier entry ((nil, false) on
// miss or nil c). A schedule that fails frame validation or binary
// decoding counts as corrupt and misses — the caller re-solves and
// re-records, overwriting the bad entry. The schedule's event streams are
// windows into its own copy of the payload.
func (c *Cache) GetSchedule(k Key) (*replay.Schedule, bool) {
	if c == nil {
		return nil, false
	}
	buf := readBufs.Get().(*[]byte)
	defer readBufs.Put(buf)
	var path [entryPathMax]byte
	payload, ok := c.read(c.entryPath(path[:0], scheduleTierDir, k, ".sched"), buf)
	if !ok {
		return nil, false
	}
	s, err := replay.DecodeBinary(bytes.Clone(payload))
	if err != nil {
		c.corrupt.Add(1)
		return nil, false
	}
	return s, true
}

// PutSchedule stores a schedule-tier entry (no-op on nil c).
func (c *Cache) PutSchedule(k Key, s *replay.Schedule) error {
	if c == nil {
		return nil
	}
	payload, err := s.EncodeBinary()
	if err != nil {
		return err
	}
	framed := frame(payload)
	var path [entryPathMax]byte
	if err := writeFileAtomic(string(c.entryPath(path[:0], scheduleTierDir, k, ".sched")), framed); err != nil {
		return err
	}
	c.bytesWritten.Add(int64(len(framed)))
	return nil
}
