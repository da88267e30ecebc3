package ccache

import (
	"crypto/sha256"
	"encoding/binary"
	"math"

	"esrp/internal/core"
	"esrp/internal/precond"
	"esrp/internal/sparse"
)

// Key is the content address of one campaign cell: the SHA-256 of the
// canonical encoding of the cell's complete input. Two cells with equal
// keys are guaranteed (modulo hash collision) to produce bit-identical
// trajectories and event schedules, because every input the solve depends
// on is folded in — and the machine model deliberately is NOT (see
// CellInput).
type Key [32]byte

// CellInput is everything a campaign cell's outcome depends on. The
// cluster.CostModel is deliberately absent: the replay engine's event
// schedules are machine-independent (PR 9's invariant, gated in CI by
// replay-equivalence), so one cached entry serves every machine point —
// result-tier hits when the stored model matches, schedule-tier re-costs
// otherwise. Everything machine-shaped lives in the entry VALUE
// (ResultEntry.Model), never in the key.
type CellInput struct {
	Matrix   [32]byte // MatrixDigest of the generated system (A and b)
	Nodes    int
	Strategy core.Strategy
	T        int
	Phi      int
	Seed     int64

	// Events is the compiled, φ-clamped failure timeline the cell actually
	// injects. Keying on the compiled events (not the scenario spec) means
	// two scenario parameterizations that compile to the same timeline
	// share entries, and any faultsim change that alters a timeline
	// changes the key.
	Events []core.FailureSpec

	Spares   int
	Rtol     float64
	MaxIter  int
	MaxBlock int
	Precond  precond.Kind
	Kernel   sparse.KernelKind
}

// keyVersion is folded into every digest; bump it whenever the canonical
// encoding (or the meaning of any encoded field) changes, so stale caches
// miss instead of resurfacing entries computed under old semantics.
const keyVersion = "esrp-ccache-key-v1"

// Key digests the canonical encoding. The encoding is a fixed-order,
// tag-prefixed byte string (ints as little-endian uint64, floats as their
// IEEE-754 bit patterns) — stable across Go versions, architectures and
// struct-field reordering, pinned byte-for-byte by TestKeyGolden.
func (in CellInput) Key() Key {
	h := sha256.New()
	var scratch [8]byte
	putU64 := func(tag byte, v uint64) {
		h.Write([]byte{tag})
		binary.LittleEndian.PutUint64(scratch[:], v)
		h.Write(scratch[:])
	}
	putInt := func(tag byte, v int) { putU64(tag, uint64(int64(v))) }

	h.Write([]byte(keyVersion))
	h.Write([]byte{'M'})
	h.Write(in.Matrix[:])
	putInt('n', in.Nodes)
	putInt('s', int(in.Strategy))
	putInt('t', in.T)
	putInt('p', in.Phi)
	putU64('d', uint64(in.Seed))
	putInt('e', len(in.Events))
	for i := range in.Events {
		ev := &in.Events[i]
		putInt('i', ev.Iteration)
		putInt('r', len(ev.Ranks))
		for _, r := range ev.Ranks {
			putInt('g', r)
		}
	}
	putInt('S', in.Spares)
	putU64('f', math.Float64bits(in.Rtol))
	putInt('I', in.MaxIter)
	putInt('b', in.MaxBlock)
	putInt('P', int(in.Precond))
	putInt('k', int(in.Kernel))

	var k Key
	h.Sum(k[:0])
	return k
}

// MatrixDigest content-addresses one system (matrix and right-hand side):
// SHA-256 over the CSR dimensions, structure and values plus b, all in
// fixed-width little-endian encoding. Digesting the realized arrays (not
// the generator spec) means any generator change that alters a single
// entry changes every dependent cell key.
func MatrixDigest(a *sparse.CSR, b []float64) [32]byte {
	h := sha256.New()
	// Encode in bulk: one buffered Write per array instead of one hasher
	// call per element — the byte stream (and therefore the digest) is
	// unchanged, but hashing a large system costs a handful of calls. A
	// campaign pays it once per system per cache handle (Cache.Digest); a
	// later run over the same bytes only compares them.
	buf := make([]byte, 0, 64*1024)
	flush := func() {
		if len(buf) > 0 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	putU64 := func(v uint64) {
		if len(buf)+8 > cap(buf) {
			flush()
		}
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	h.Write([]byte("esrp-ccache-mtx-v1"))
	putU64(uint64(a.Rows))
	putU64(uint64(a.Cols))
	putU64(uint64(len(a.RowPtr)))
	for _, v := range a.RowPtr {
		putU64(uint64(v))
	}
	putU64(uint64(len(a.ColIdx)))
	for _, v := range a.ColIdx {
		putU64(uint64(v))
	}
	putU64(uint64(len(a.Val)))
	for _, v := range a.Val {
		putU64(math.Float64bits(v))
	}
	putU64(uint64(len(b)))
	for _, v := range b {
		putU64(math.Float64bits(v))
	}
	flush()
	var d [32]byte
	h.Sum(d[:0])
	return d
}
