package ccache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"unique"
	"unsafe"

	"esrp/internal/core"
	"esrp/internal/replay"
)

// Every entry on disk is one framed payload:
//
//	magic "ESRPCCF1" (8 bytes)
//	payload length   (uint64 little-endian)
//	payload CRC-32   (IEEE, uint32 little-endian)
//	payload
//
// The frame is what makes interrupted sweeps resumable: a write cut short
// by a crash leaves a file whose length or checksum cannot match, so the
// reader classifies it as corrupt and the cell is recomputed — a partial
// entry is never trusted. Writes additionally go through a same-directory
// temp file + rename, so on POSIX filesystems a reader never observes a
// half-written final path in the first place; the frame is the defense for
// the cases rename can't cover (torn writes below the filesystem, manual
// tampering, truncated copies).
const frameMagic = "ESRPCCF1"

const frameHeaderLen = 8 + 8 + 4

// ErrCorrupt marks an entry that failed frame validation (wrong magic,
// length mismatch, checksum mismatch). Callers treat it as a miss.
var ErrCorrupt = errors.New("ccache: corrupt entry")

// frame returns the framed encoding of payload.
func frame(payload []byte) []byte {
	return seal(append(make([]byte, frameHeaderLen, frameHeaderLen+len(payload)), payload...))
}

// seal fills in the header of out, a frame whose payload follows
// frameHeaderLen reserved bytes, and returns it.
func seal(out []byte) []byte {
	payload := out[frameHeaderLen:]
	copy(out, frameMagic)
	binary.LittleEndian.PutUint64(out[8:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(out[16:], crc32.ChecksumIEEE(payload))
	return out
}

// unframe validates a framed encoding and returns the payload.
func unframe(data []byte) ([]byte, error) {
	if len(data) < frameHeaderLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the frame header", ErrCorrupt, len(data))
	}
	if string(data[:8]) != frameMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:8])
	}
	n := binary.LittleEndian.Uint64(data[8:])
	if n != uint64(len(data)-frameHeaderLen) {
		return nil, fmt.Errorf("%w: frame declares %d payload bytes, file carries %d", ErrCorrupt, n, len(data)-frameHeaderLen)
	}
	payload := data[frameHeaderLen:]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(data[16:]); got != want {
		return nil, fmt.Errorf("%w: checksum %08x != stored %08x", ErrCorrupt, got, want)
	}
	return payload, nil
}

// A result-tier payload is one record of a ResultEntry, its fields in
// struct order: every float64 as its IEEE-754 bits (uint64 little-endian),
// every integer as a signed varint, Converged as one byte (0 or 1), Kernels
// as a uvarint length and its bytes. Then come the uvarint counts of the
// recovery events and of all their ranks, and per event: Iteration, its rank
// count + 1 (0 = nil) and the ranks, its mode as one byte indexing
// recoveryModes, RecoveredAt, WastedIters, SparesLeft, ActiveNodes. The
// decoder accepts nothing the encoder would not write for the value it
// reads, so every payload that decodes encodes back to its own bytes.
var recoveryModes = [...]string{core.RecoverySpare, core.RecoveryShrink, core.RecoveryRestart, core.RecoverySkipped}

// minEventLen is the fewest bytes an event takes: five one-byte varints,
// its rank count and its mode.
const minEventLen = 7

// appendResultEntry appends e's record to dst. A recovery mode that is not
// one of the core.Recovery* constants is an error.
func appendResultEntry(dst []byte, e *ResultEntry) ([]byte, error) {
	m, r := &e.Model, &e.Result
	dst = appendFloats(dst, m.FlopTime, m.Latency, m.BytePeriod, m.Overhead)
	converged := byte(0)
	if r.Converged {
		converged = 1
	}
	dst = appendInts(append(dst, converged), int64(r.Iterations), int64(r.TotalSteps))
	dst = appendFloats(dst, r.RelResidual, r.SimTime, r.RecoveryTime)
	dst = appendFloats(appendInts(dst, int64(r.WastedIters)), r.Drift)
	dst = appendInts(dst, r.MaxNodeBytes, r.HaloBytes, r.BytesSent, int64(r.ActiveNodes))
	dst = append(binary.AppendUvarint(dst, uint64(len(r.Kernels))), r.Kernels...)
	ranks := 0
	for _, ev := range r.Recoveries {
		ranks += len(ev.Ranks)
	}
	dst = binary.AppendUvarint(binary.AppendUvarint(dst, uint64(len(r.Recoveries))), uint64(ranks))
	for _, ev := range r.Recoveries {
		mode := slices.Index(recoveryModes[:], ev.Mode)
		if mode < 0 {
			return nil, fmt.Errorf("ccache: result entry: recovery mode %q is not one of core's", ev.Mode)
		}
		n := uint64(0)
		if ev.Ranks != nil {
			n = uint64(len(ev.Ranks)) + 1
		}
		dst = binary.AppendUvarint(appendInts(dst, int64(ev.Iteration)), n)
		for _, rank := range ev.Ranks {
			dst = binary.AppendVarint(dst, int64(rank))
		}
		dst = appendInts(append(dst, byte(mode)), int64(ev.RecoveredAt), int64(ev.WastedIters), int64(ev.SparesLeft), int64(ev.ActiveNodes))
	}
	return dst, nil
}

func appendFloats(dst []byte, fs ...float64) []byte {
	for _, f := range fs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst
}

func appendInts(dst []byte, vs ...int64) []byte {
	for _, v := range vs {
		dst = binary.AppendVarint(dst, v)
	}
	return dst
}

// recordLenMax bounds the length of e's record, so PutResult frames it in
// one buffer.
func recordLenMax(e *ResultEntry) int {
	const v = binary.MaxVarintLen64
	n := 8*8 + 1 + 7*v + v + len(e.Result.Kernels) + 2*v
	for _, ev := range e.Result.Recoveries {
		n += 5*v + v + 1 + len(ev.Ranks)*v
	}
	return n
}

// decodeResultEntry decodes a record appendResultEntry wrote into *e, which
// must be zero. The events and one array all their ranks share are its only
// allocations, each sized by a count checked against the bytes that remain,
// so a decode never allocates more items than the payload has bytes.
// Kernels is interned: a campaign's cells share a handful of kernel
// summaries, and each costs one copy per process, not one per entry.
func decodeResultEntry(data []byte, e *ResultEntry) error {
	d := record{data: data}
	m, r := &e.Model, &e.Result
	m.FlopTime, m.Latency, m.BytePeriod, m.Overhead = d.float(), d.float(), d.float(), d.float()
	r.Converged = d.enum(2) == 1
	r.Iterations, r.TotalSteps = d.int(), d.int()
	r.RelResidual, r.SimTime, r.RecoveryTime = d.float(), d.float(), d.float()
	r.WastedIters, r.Drift = d.int(), d.float()
	r.MaxNodeBytes, r.HaloBytes, r.BytesSent = d.int64(), d.int64(), d.int64()
	r.ActiveNodes = d.int()
	if k := d.bytes(d.uvarint()); len(k) > 0 {
		// unique.Make clones what it inserts, so the view never outlives data.
		r.Kernels = unique.Make(unsafe.String(unsafe.SliceData(k), len(k))).Value()
	}
	events, ranks := d.uvarint(), d.uvarint()
	if rest := uint64(len(data) - d.off); events > rest/minEventLen || ranks > rest-events*minEventLen {
		d.fail("event or rank count exceeds the bytes that remain")
		events, ranks = 0, 0
	}
	if events > 0 {
		r.Recoveries = make([]core.RecoveryEvent, events)
	}
	all, used := make([]int, ranks), 0
	for i := range r.Recoveries {
		ev := &r.Recoveries[i]
		ev.Iteration = d.int()
		if n := d.uvarint(); n > uint64(len(all)-used)+1 {
			d.fail("rank count exceeds the ranks that remain")
		} else if n > 0 {
			ev.Ranks = all[used : used+int(n)-1 : used+int(n)-1]
			for j := range ev.Ranks {
				ev.Ranks[j] = d.int()
			}
			used += len(ev.Ranks)
		}
		ev.Mode = recoveryModes[d.enum(len(recoveryModes))]
		ev.RecoveredAt, ev.WastedIters, ev.SparesLeft, ev.ActiveNodes = d.int(), d.int(), d.int(), d.int()
	}
	switch {
	case used != len(all):
		d.fail("rank total differs from the events' ranks")
	case d.off != len(data):
		d.fail("trailing bytes")
	}
	return d.err
}

// record reads a result record off a byte slice. The first failure sticks
// and parks it at the end, so later reads return zeros and
// decodeResultEntry checks err once.
type record struct {
	data []byte
	off  int
	err  error
}

func (d *record) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("ccache: result entry: %s at offset %d", what, d.off)
	}
	d.off = len(d.data)
}

func (d *record) bytes(n uint64) []byte {
	if n > uint64(len(d.data)-d.off) {
		d.fail("truncated")
		return nil
	}
	b := d.data[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

func (d *record) float() float64 {
	if b := d.bytes(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// enum reads one byte, which must be below n.
func (d *record) enum(n int) byte {
	if d.off == len(d.data) || int(d.data[d.off]) >= n {
		d.fail("missing or out-of-range byte")
		return 0
	}
	d.off++
	return d.data[d.off-1]
}

// varint steps past the varint at off, whose length a decoder returned as n
// (n ≤ 0: none). It must be of the shortest form, the only one the encoder
// writes: a padded one would not encode back to its bytes.
func (d *record) varint(n int) bool {
	if n <= 0 || n > 1 && d.data[d.off+n-1] == 0 {
		d.fail("malformed varint")
		return false
	}
	d.off += n
	return true
}

func (d *record) uvarint() uint64 {
	if v, n := binary.Uvarint(d.data[d.off:]); d.varint(n) {
		return v
	}
	return 0
}

func (d *record) int64() int64 {
	if v, n := binary.Varint(d.data[d.off:]); d.varint(n) {
		return v
	}
	return 0
}

func (d *record) int() int {
	v := d.int64()
	if int64(int(v)) != v {
		d.fail("integer out of range")
		return 0
	}
	return int(v)
}

// writeFileAtomic writes data to path via a temp file in the same
// directory plus rename, creating parent directories as needed.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// WriteScheduleFile writes one recorded schedule as a framed entry — the
// single serializer for schedules on disk, shared by the cache's schedule
// tier and the `esrpcampaign -schedules` export.
func WriteScheduleFile(path string, s *replay.Schedule) error {
	payload, err := s.EncodeBinary()
	if err != nil {
		return err
	}
	return writeFileAtomic(path, frame(payload))
}

// ReadScheduleFile reads a schedule written by WriteScheduleFile, the one
// reader of schedule files. The schedule aliases the bytes read, which
// nothing else holds.
func ReadScheduleFile(path string) (*replay.Schedule, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if data, err = unframe(data); err != nil {
		return nil, err
	}
	return replay.DecodeBinary(data)
}
