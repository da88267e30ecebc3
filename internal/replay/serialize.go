package replay

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// Serialization of schedules: one compact self-describing binary format,
// which round-trips bit-exactly (floats travel as their IEEE-754 bit
// patterns), so a decoded schedule re-costs to the identical bytes the
// in-memory one does. On disk it travels inside a ccache frame
// (ccache.WriteScheduleFile / ReadScheduleFile).
//
// Binary layout (all ints unsigned varints of minimal length unless noted):
//
//	magic "ESRPRPL1" (8 bytes)
//	nodes, nviews
//	per view:  nmembers, then member ranks delta-encoded (rank − prev − 1
//	           for the tail, absolute for the first; views are ascending)
//	per rank:  nevents, then per event: kind byte followed by the fields
//	           that kind defines (see cursor.event); float64s are fixed
//	           8-byte little-endian bit patterns
//
// The per-event part of this layout is also the in-memory form (Rank,
// Schedule.streams): encoding copies it behind a header, decoding aliases it.
const binaryMagic = "ESRPRPL1"

// EncodeBinary returns the schedule's compact binary encoding: the header,
// then the payload as it is held. The content-addressed campaign cache frames
// these bytes (length + checksum) for its schedule tier, so there is exactly
// one serializer for schedules on disk.
func (s *Schedule) EncodeBinary() ([]byte, error) {
	dst := append(make([]byte, 0, 64), binaryMagic...) // the payload's append sizes the result
	dst = binary.AppendUvarint(dst, uint64(s.Nodes))
	dst = binary.AppendUvarint(dst, uint64(len(s.Views)))
	for _, view := range s.Views {
		dst = binary.AppendUvarint(dst, uint64(len(view)))
		prev := -1
		for _, g := range view {
			dst = binary.AppendUvarint(dst, uint64(g-prev-1))
			prev = g
		}
	}
	return append(dst, s.payload...), nil
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

// uvarint reads a varint of at most limit. A padded varint is an error: one
// value has one encoding, so what decodes encodes back to the same bytes.
// One and two bytes, nearly every field, are read inline; any other length,
// and every failure, takes the general path, so errors read the same.
func (c *cursor) uvarint(limit uint64) uint64 {
	if c.off < len(c.data) {
		b0 := uint64(c.data[c.off])
		if b0 < 0x80 && b0 <= limit {
			c.off++
			return b0
		}
		if c.off+1 < len(c.data) {
			b1 := uint64(c.data[c.off+1])
			if v := b0&0x7f | b1<<7; b0 >= 0x80 && b1 < 0x80 && b1 != 0 && v <= limit {
				c.off += 2
				return v
			}
		}
	}
	v, n := binary.Uvarint(c.data[c.off:])
	switch {
	case n == 0:
		c.fail(io.ErrUnexpectedEOF)
	case n < 0:
		c.fail(fmt.Errorf("varint at offset %d overflows 64 bits", c.off))
	case n > 1 && c.data[c.off+n-1] == 0:
		c.fail(fmt.Errorf("varint at offset %d is padded", c.off))
	case v > limit:
		c.fail(fmt.Errorf("value %d at offset %d exceeds %d", v, c.off, limit))
	default:
		c.off += n
		return v
	}
	return 0
}

// count reads a length field. Every item a length announces — a rank, a
// view, a member, an event — occupies at least one byte of what follows, so
// a count beyond the bytes remaining is corrupt; checking it here keeps
// every allocation proportional to the input.
func (c *cursor) count() int { return int(c.uvarint(uint64(len(c.data) - c.off))) }

// event decodes the event at the cursor into e: the kind byte, then the
// fields that kind defines. Only those fields are written; the others keep
// what e held, which no reader of that kind looks at. Peers and views beyond
// int32, counts beyond int64 and unknown kinds fail the cursor.
func (c *cursor) event(e *event) {
	if c.off >= len(c.data) {
		e.Kind = KindInvalid
		c.fail(io.ErrUnexpectedEOF)
		return
	}
	e.Kind = Kind(c.data[c.off])
	c.off++
	switch e.Kind {
	case KindCompute, KindClockAdd, KindRecCharge:
		if len(c.data)-c.off < 8 {
			c.fail(io.ErrUnexpectedEOF)
			return
		}
		e.Val = math.Float64frombits(binary.LittleEndian.Uint64(c.data[c.off:]))
		c.off += 8
	case KindSend:
		e.Peer, e.Bytes = int32(c.uvarint(math.MaxInt32)), int64(c.uvarint(math.MaxInt64))
		e.AcctMsgs, e.AcctBytes = 1, e.Bytes
	case KindRecv, KindEnvStart:
		e.Peer = int32(c.uvarint(math.MaxInt32))
	case KindAllreduce, KindBcast, KindGather:
		root := c.uvarint(1)
		e.Root = root == 1
		e.View, e.Bytes = int32(c.uvarint(math.MaxInt32)), int64(c.uvarint(math.MaxInt64))
		e.AcctMsgs, e.AcctBytes = int64(c.uvarint(math.MaxInt64)), int64(c.uvarint(math.MaxInt64))
	case KindRecStart, KindRecEnd, KindEnvEnd, KindRTFinal:
	default:
		c.fail(fmt.Errorf("unknown event kind %d at offset %d", e.Kind, c.off-1))
	}
}

// DecodeBinary decodes a schedule from its compact binary encoding. The
// schedule aliases data — its event streams are windows into it — so the
// caller hands the buffer over and must not write to it afterwards.
func DecodeBinary(data []byte) (*Schedule, error) {
	if !bytes.HasPrefix(data, []byte(binaryMagic)) {
		return nil, fmt.Errorf("replay: bad magic %q (not a schedule file)", data[:min(len(data), len(binaryMagic))])
	}
	c := &cursor{data: data, off: len(binaryMagic)}
	nodes := c.count()
	if c.err == nil && nodes == 0 {
		c.fail(fmt.Errorf("node count 0"))
	}
	views := make([][]int, c.count())
	for v := range views {
		members := make([]int, c.count())
		prev := -1
		for i := range members {
			// Every delta is below nodes − prev − 1, so views arrive valid.
			d := c.uvarint(math.MaxUint64)
			if d >= uint64(nodes-prev-1) && c.err == nil {
				c.fail(fmt.Errorf("view %d member %d is not a rank below %d", v, i, nodes))
			}
			prev += 1 + int(d)
			members[i] = prev
		}
		views[v] = members
	}
	if c.err != nil {
		return nil, fmt.Errorf("replay: %w", c.err)
	}
	return index(nodes, views, c)
}

// index runs the one validating scan over a schedule's payload, which runs
// from the cursor to the end of its data: rank by rank, the event count, then
// the events. It checks every event's kind and field ranges, every peer
// against the node count and every view id against the view list, and leaves
// on the schedule the stream windows, the event total, the distinct (src,dst)
// pairs and the envelope counts that every Recost call then shares.
func index(nodes int, views [][]int, c *cursor) (*Schedule, error) {
	int32s := make([]int32, 2*nodes+1)
	s := &Schedule{
		Nodes: nodes, Views: views, payload: c.data[c.off:], streams: make([][]byte, nodes),
		envOff: make([]int, nodes+1), pairOff: int32s[: nodes+1 : nodes+1],
	}
	mark := int32s[nodes+1:] // mark[d] == g+1: pair (g,d) is already listed
	var e event
	for g := range s.streams {
		count := c.count()
		start, envs := c.off, 0
		for i := 0; i < count; i++ {
			c.event(&e)
			switch {
			case (e.Kind == KindSend || e.Kind == KindRecv) && int(e.Peer) >= nodes:
				return nil, fmt.Errorf("replay: rank %d event %d (%v): peer %d out of range", g, i, e.Kind, e.Peer)
			case e.Kind == KindSend && mark[e.Peer] != int32(g)+1:
				mark[e.Peer] = int32(g) + 1
				s.pairDst = append(s.pairDst, e.Peer)
			case (e.Kind == KindAllreduce || e.Kind == KindBcast || e.Kind == KindGather) && int(e.View) >= len(views):
				return nil, fmt.Errorf("replay: rank %d event %d (%v): view %d out of range", g, i, e.Kind, e.View)
			case e.Kind == KindEnvEnd:
				envs++
			}
		}
		if c.err != nil {
			return nil, fmt.Errorf("replay: rank %d: %w", g, c.err)
		}
		slices.Sort(s.pairDst[s.pairOff[g]:])
		s.pairOff[g+1] = int32(len(s.pairDst))
		s.envOff[g+1] = s.envOff[g] + envs
		s.streams[g] = c.data[start:c.off:c.off]
		s.events += count
	}
	if c.off != len(c.data) {
		return nil, fmt.Errorf("replay: %d bytes after the last rank's stream", len(c.data)-c.off)
	}
	return s, nil
}
