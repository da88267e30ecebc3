package replay

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// Serialization of schedules: a compact self-describing binary format for
// resumable sweeps and artifacts, and plain JSON for diffing and ad-hoc
// tooling. Both round-trip bit-exactly (floats travel as their IEEE-754
// bit patterns), so a deserialized schedule re-costs to the identical
// bytes the in-memory one does.
//
// Binary layout (all ints unsigned varints unless noted):
//
//	magic "ESRPRPL1" (8 bytes)
//	nodes, nviews
//	per view:  nmembers, then member ranks delta-encoded (rank − prev − 1
//	           for the tail, absolute for the first; views are ascending)
//	per rank:  nevents, then per event: kind byte followed by the fields
//	           that kind defines (see DecodeBinary); float64s are fixed
//	           8-byte little-endian bit patterns
const binaryMagic = "ESRPRPL1"

// WriteBinary encodes the schedule in the compact binary format.
func (s *Schedule) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		bw.Write(scratch[:n])
	}
	putFloat := func(f float64) {
		binary.LittleEndian.PutUint64(scratch[:8], math.Float64bits(f))
		bw.Write(scratch[:8])
	}
	putUvarint(uint64(s.Nodes))
	putUvarint(uint64(len(s.Views)))
	for _, members := range s.Views {
		putUvarint(uint64(len(members)))
		prev := -1
		for _, g := range members {
			putUvarint(uint64(g - prev - 1))
			prev = g
		}
	}
	for _, evs := range s.Events {
		putUvarint(uint64(len(evs)))
		for i := range evs {
			e := &evs[i]
			bw.WriteByte(byte(e.Kind))
			switch e.Kind {
			case KindCompute, KindClockAdd, KindClockSync, KindRecCharge:
				putFloat(e.Val)
			case KindSend:
				putUvarint(uint64(e.Peer))
				putUvarint(uint64(e.Bytes))
			case KindRecv:
				putUvarint(uint64(e.Peer))
			case KindAllreduce, KindBcast, KindGather:
				root := byte(0)
				if e.Root {
					root = 1
				}
				bw.WriteByte(root)
				putUvarint(uint64(e.View))
				putUvarint(uint64(e.Bytes))
				putUvarint(uint64(e.AcctMsgs))
				putUvarint(uint64(e.AcctBytes))
			case KindEnvStart:
				putUvarint(uint64(e.Peer))
			case KindRecStart, KindRecEnd, KindEnvEnd, KindRTFinal:
				// kind byte only
			default:
				return fmt.Errorf("replay: cannot encode event kind %d", e.Kind)
			}
		}
	}
	return bw.Flush()
}

// ReadBinary decodes a schedule written by WriteBinary.
func ReadBinary(r io.Reader) (*Schedule, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("replay: reading schedule: %w", err)
	}
	return DecodeBinary(data)
}

// cursor reads the binary layout off a byte slice. The first failure
// sticks: later reads return zeros, so decode loops check err once per view
// or rank instead of once per field.
type cursor struct {
	data []byte
	off  int
	err  error
}

func (c *cursor) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.off = len(c.data)
}

func (c *cursor) byte() byte {
	if c.off >= len(c.data) {
		c.fail(io.ErrUnexpectedEOF)
		return 0
	}
	c.off++
	return c.data[c.off-1]
}

func (c *cursor) uvarint() uint64 {
	v, n := binary.Uvarint(c.data[c.off:])
	if n <= 0 {
		if n == 0 {
			c.fail(io.ErrUnexpectedEOF)
		} else {
			c.fail(fmt.Errorf("replay: varint at offset %d overflows 64 bits", c.off))
		}
		return 0
	}
	c.off += n
	return v
}

func (c *cursor) float() float64 {
	if len(c.data)-c.off < 8 {
		c.fail(io.ErrUnexpectedEOF)
		return 0
	}
	c.off += 8
	return math.Float64frombits(binary.LittleEndian.Uint64(c.data[c.off-8:]))
}

// count reads a length field. Every item a length announces — a rank, a
// view, a member, an event — occupies at least one byte of what follows, so
// a count beyond the bytes remaining is corrupt; checking it here keeps
// every allocation proportional to the input.
func (c *cursor) count(what string) int {
	v := c.uvarint()
	if v > uint64(len(c.data)-c.off) {
		c.fail(fmt.Errorf("replay: implausible %s %d with %d bytes left", what, v, len(c.data)-c.off))
		return 0
	}
	return int(v)
}

// DecodeBinary decodes a schedule from its compact binary encoding.
func DecodeBinary(data []byte) (*Schedule, error) {
	if len(data) < len(binaryMagic) {
		return nil, fmt.Errorf("replay: reading magic: %w", io.ErrUnexpectedEOF)
	}
	if string(data[:len(binaryMagic)]) != binaryMagic {
		return nil, fmt.Errorf("replay: bad magic %q (not a schedule file)", data[:len(binaryMagic)])
	}
	c := &cursor{data: data, off: len(binaryMagic)}
	nodes := c.count("node count")
	if c.err == nil && nodes == 0 {
		c.fail(fmt.Errorf("replay: implausible node count 0"))
	}
	nviews := c.count("view count")
	if c.err != nil {
		return nil, c.err
	}
	s := &Schedule{Nodes: nodes, Views: make([][]int, nviews), Events: make([][]Event, nodes)}
	for v := range s.Views {
		members := make([]int, c.count("view size"))
		prev := -1
		for i := range members {
			d := c.uvarint()
			if d >= uint64(nodes-prev-1) && c.err == nil {
				c.fail(fmt.Errorf("replay: view %d member %d is not a rank below %d", v, i, nodes))
			}
			prev += 1 + int(d)
			members[i] = prev
		}
		if c.err != nil {
			return nil, c.err
		}
		s.Views[v] = members
	}
	for g := range s.Events {
		evs := make([]Event, c.count("event count"))
		for i := range evs {
			e := &evs[i]
			e.Kind = Kind(c.byte())
			switch e.Kind {
			case KindCompute, KindClockAdd, KindClockSync, KindRecCharge:
				e.Val = c.float()
			case KindSend:
				e.Peer, e.Bytes = int32(c.uvarint()), int64(c.uvarint())
				e.AcctMsgs, e.AcctBytes = 1, e.Bytes
			case KindRecv, KindEnvStart:
				e.Peer = int32(c.uvarint())
			case KindAllreduce, KindBcast, KindGather:
				e.Root = c.byte() != 0
				e.View, e.Bytes = int32(c.uvarint()), int64(c.uvarint())
				e.AcctMsgs, e.AcctBytes = int64(c.uvarint()), int64(c.uvarint())
			case KindRecStart, KindRecEnd, KindEnvEnd, KindRTFinal:
			default:
				if c.err == nil {
					c.fail(fmt.Errorf("replay: rank %d event %d: unknown kind %d", g, i, e.Kind))
				}
			}
		}
		if c.err != nil {
			return nil, c.err
		}
		s.Events[g] = evs
	}
	return s, nil
}

// EncodeBinary returns the schedule's compact binary encoding as one byte
// slice — the same bytes WriteBinary streams. The content-addressed campaign
// cache frames these bytes (length + checksum) for its schedule tier, so
// there is exactly one serializer for schedules on disk.
func (s *Schedule) EncodeBinary() ([]byte, error) {
	var buf bytes.Buffer
	if err := s.WriteBinary(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteJSON emits the schedule as JSON (large but diffable; floats are
// round-trip exact under Go's JSON shortest-representation encoding).
func (s *Schedule) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(s)
}

// ReadJSON decodes a schedule written by WriteJSON.
func ReadJSON(r io.Reader) (*Schedule, error) {
	var s Schedule
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("replay: decoding JSON schedule: %w", err)
	}
	return &s, nil
}
