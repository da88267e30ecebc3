package ccache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

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
	out := make([]byte, frameHeaderLen+len(payload))
	copy(out, frameMagic)
	binary.LittleEndian.PutUint64(out[8:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(out[16:], crc32.ChecksumIEEE(payload))
	copy(out[frameHeaderLen:], payload)
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
