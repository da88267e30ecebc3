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
//	magic "ESRPRPL3" (8 bytes)
//	nodes, nviews
//	per view:  nmembers, then member ranks delta-encoded (rank − prev − 1
//	           for the tail, absolute for the first; views are ascending)
//	per rank:  nblocks, then per block: nbytes, then its events, each a
//	           kind byte followed by the fields that kind defines (see
//	           cursor.event; float64s are fixed 8-byte little-endian bit
//	           patterns); then nrefbytes, then one block index per block
//	           occurrence, in program order
//
// A rank's program-order event stream is cut into blocks after every
// collective (Allreduce, Bcast, Gather): every block but the stream's last
// ends in its one collective, and the last may end in none. The dictionary
// holds each distinct block once, in order of first use, and the
// references spell the stream out. A schedule therefore has one encoding:
// the scan refuses an empty block, a block with a collective before its
// end, a block that does not end in one where another follows, a duplicate
// or unused block, one introduced out of first-use order, and a reference
// past the dictionary. There are no repeat counts or loop descriptors: the
// expanded stream is at most refs × (largest block) events, quadratic in
// the input, where nested counts would make it exponential.
//
// The per-rank part of this layout is also the in-memory form (Rank,
// Schedule.payload): encoding copies it behind a header, decoding aliases it.
//
// ESRPRPL3 added a compute's Work and the iternext, iterset, region and
// point kinds (cursor.event) to ESRPRPL2, whose magic it refuses.
const binaryMagic = "ESRPRPL3"

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
// view, a member, a block, a byte — occupies at least one byte of what
// follows, so a count beyond the bytes remaining is corrupt; checking it
// here keeps every allocation proportional to the input.
func (c *cursor) count() int { return int(c.uvarint(uint64(len(c.data) - c.off))) }

// window returns the next n bytes and moves past them; fewer than n left
// fail the cursor.
func (c *cursor) window(n int) []byte {
	if n > len(c.data)-c.off {
		c.fail(io.ErrUnexpectedEOF)
		return nil
	}
	w := c.data[c.off : c.off+n : c.off+n]
	c.off += n
	return w
}

// event decodes the event at the cursor into e: the kind byte, then the
// fields that kind defines (a compute's Work, then its flops; an iterset's
// iteration plus one, since the epilogue's is −1). Only those fields are written; the others keep
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
		if e.Kind == KindCompute {
			e.Tag = uint8(c.uvarint(uint64(workCount - 1)))
		}
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
	case KindIterSet:
		e.Peer = int32(c.uvarint(math.MaxInt32)) - 1
	case KindRegion:
		e.Tag = uint8(c.uvarint(uint64(regionCount - 1)))
	case KindAllreduce, KindBcast, KindGather:
		root := c.uvarint(1)
		e.Root = root == 1
		e.View, e.Bytes = int32(c.uvarint(math.MaxInt32)), int64(c.uvarint(math.MaxInt64))
		e.AcctMsgs, e.AcctBytes = int64(c.uvarint(math.MaxInt64)), int64(c.uvarint(math.MaxInt64))
	case KindRecStart, KindRecEnd, KindEnvEnd, KindRTFinal, KindIterNext, KindPoint:
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
	c := cursor{data: data, off: len(binaryMagic)}
	nodes := c.count()
	if c.err == nil && nodes == 0 {
		c.fail(fmt.Errorf("node count 0"))
	}
	views := make([][]int, c.count())
	// A first pass over the member counts sizes one array for every view's
	// members. It reads what the second reads, up to where either fails.
	total := 0
	for p, v := c, 0; v < len(views) && p.err == nil; v++ {
		n := p.count()
		for range n {
			p.uvarint(math.MaxUint64)
		}
		total += n
	}
	all := make([]int, total)
	for v := range views {
		n := c.count()
		members := all[:n:n]
		all = all[n:]
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
	return index(nodes, views, &c)
}

// shape is what cursor.event reads after a kind byte: so many varints, then
// so many fixed bytes (markers read neither); and whether the kind is known,
// a send or a receive.
type shape struct {
	varints, fixed uint8
	known          bool
	send, recv     uint8
}

var shapes = [256]shape{
	KindCompute: {1, 8, true, 0, 0}, KindClockAdd: {0, 8, true, 0, 0}, KindRecCharge: {0, 8, true, 0, 0},
	KindSend: {2, 0, true, 1, 0}, KindRecv: {1, 0, true, 0, 1},
	KindEnvStart: {1, 0, true, 0, 0}, KindIterSet: {1, 0, true, 0, 0}, KindRegion: {1, 0, true, 0, 0},
	KindAllreduce: {5, 0, true, 0, 0}, KindBcast: {5, 0, true, 0, 0}, KindGather: {5, 0, true, 0, 0},
	KindRecStart: {known: true}, KindRecEnd: {known: true}, KindEnvEnd: {known: true},
	KindRTFinal: {known: true}, KindIterNext: {known: true}, KindPoint: {known: true},
}

// skim counts a block's events, and the sends and receives among them, by
// stepping over each event's fields without decoding them. Every event
// cursor.event decodes takes the bytes skim steps over, so over any block
// cursor.event decodes at most the events skim counts, and exactly those
// when the block is valid: the scan sizes its tables from the counts. An
// unknown kind, where cursor.event fails, ends the count.
func skim(b []byte) (events, sends, recvs int) {
	for i := 0; i < len(b); events++ {
		sh := shapes[b[i]]
		if !sh.known {
			return events + 1, sends, recvs
		}
		i++
		sends, recvs = sends+int(sh.send), recvs+int(sh.recv)
		for range sh.varints {
			for i < len(b) && b[i] >= 0x80 {
				i++
			}
			i++
		}
		i += int(sh.fixed)
	}
	return events, sends, recvs
}

// index runs the one validating scan over a schedule's payload, which runs
// from the cursor to the end of its data. A first pass reads the lengths and
// skims the blocks, to size the tables; the second decodes each distinct
// block's events once, into the event array the walk reads, and checks them
// — kind, field ranges, peers against the node count, view ids against the
// view list, the block rule — and every reference; it gives each send its
// (src,dst) pair's index, and a third pass each receive. A last sorts each
// rank's blocks to refuse duplicates. It leaves on the schedule the decoded
// events, the block table, the reference windows, the expanded event total
// and the pair and send-slot counts that every Recost call then shares. It
// refuses a schedule whose expanded envelopes outnumber its payload bytes,
// since a traced walk keeps one span per envelope.
func index(nodes int, views [][]int, c *cursor) (*Schedule, error) {
	base := c.off
	nblocks, nevents, npairs, nrecvs := 0, 0, 0, 0
	for p, g := *c, 0; g < nodes; g++ {
		n, sends := p.count(), 0
		for i := 0; i < n && p.err == nil; i++ {
			evs, snd, rcv := skim(p.window(p.count()))
			nevents, sends, nrecvs = nevents+evs, sends+snd, nrecvs+rcv
		}
		p.window(p.count())
		if p.err != nil {
			return nil, fmt.Errorf("replay: rank %d: %w", g, p.err)
		}
		nblocks += n
		npairs += min(sends, nodes) // a rank sends to at most every rank
	}

	s := &Schedule{
		Nodes: nodes, Views: views, payload: c.data[base:],
		blocks: make([]block, nblocks), streams: make([]stream, nodes+1), dict: make([]event, nevents),
	}
	// Scratch, carved from one allocation: the pairs' sources and
	// destinations, in order of first send; per rank, a mark (mark[d] == g+1:
	// pair (g,d) is listed) and the listed pair's index; where the receives
	// lie in the event array, and where each rank's start; the pairs bucketed
	// by destination; the block order of the duplicate check.
	int32s := make([]int32, 4*nodes+2+3*npairs+nrecvs+nblocks)
	cut := func(n int) []int32 {
		w := int32s[:n:n]
		int32s = int32s[n:]
		return w
	}
	pairSrc, pairDst := cut(npairs)[:0], cut(npairs)[:0]
	mark, pid := cut(nodes), cut(nodes)
	recvs, recvOff := cut(nrecvs)[:0], cut(nodes+1)
	byDst, dstOff := cut(npairs), cut(nodes+1)
	order := cut(nblocks)

	nevents, envs := 0, 0
	for g := range nodes {
		st, next := &s.streams[g], &s.streams[g+1]
		blocks := s.blocks[st.block:][:c.count()]
		next.block = st.block + len(blocks)
		slots := 0
		for i := range blocks {
			b := &blocks[i]
			size := c.count()
			if size == 0 {
				return nil, fmt.Errorf("replay: rank %d block %d is empty", g, i)
			}
			b.off, b.end, b.first = c.off-base, c.off-base+size, nevents
			bc := cursor{data: c.data[:c.off+size], off: c.off}
			c.off += size
			sends := 0
			for bc.off < len(bc.data) {
				if b.closed {
					return nil, fmt.Errorf("replay: rank %d block %d event %d follows the block's collective", g, i, b.events)
				}
				e := &s.dict[nevents] // skim counted this event
				bc.event(e)
				switch {
				case (e.Kind == KindSend || e.Kind == KindRecv) && int(e.Peer) >= nodes:
					return nil, fmt.Errorf("replay: rank %d block %d event %d (%v): peer %d out of range", g, i, b.events, e.Kind, e.Peer)
				case e.Kind == KindSend:
					sends++
					if mark[e.Peer] != int32(g)+1 {
						mark[e.Peer], pid[e.Peer] = int32(g)+1, int32(len(pairDst))
						pairSrc, pairDst = append(pairSrc, int32(g)), append(pairDst, e.Peer)
					}
					e.Pair = pid[e.Peer]
				case e.Kind == KindRecv:
					recvs = append(recvs, int32(nevents))
				case isCollective(e.Kind) && int(e.View) >= len(views):
					return nil, fmt.Errorf("replay: rank %d block %d event %d (%v): view %d out of range", g, i, b.events, e.Kind, e.View)
				case e.Kind == KindEnvEnd:
					b.envs++
				}
				b.closed = isCollective(e.Kind)
				b.events++
				nevents++
			}
			if bc.err != nil {
				return nil, fmt.Errorf("replay: rank %d block %d: %w", g, i, bc.err)
			}
			slots = max(slots, sends)
		}
		s.slots += slots
		recvOff[g+1] = int32(len(recvs))

		n := c.count()
		rc := cursor{data: c.data[:c.off+n], off: c.off}
		st.refs = c.window(n)
		used := 0
		for i := 0; rc.off < len(rc.data); i++ {
			r := int(rc.data[rc.off])
			if r < 0x80 { // nearly every reference is one byte
				rc.off++
			} else {
				r = int(rc.uvarint(math.MaxInt32))
			}
			switch {
			case rc.err != nil:
				return nil, fmt.Errorf("replay: rank %d reference %d: %w", g, i, rc.err)
			case r >= len(blocks):
				return nil, fmt.Errorf("replay: rank %d reference %d: block %d past the dictionary of %d", g, i, r, len(blocks))
			case r > used:
				return nil, fmt.Errorf("replay: rank %d reference %d: block %d before block %d, out of first-use order", g, i, r, used)
			case !blocks[r].closed && rc.off < len(rc.data):
				return nil, fmt.Errorf("replay: rank %d reference %d: block %d ends in no collective, and another follows", g, i, r)
			case r == used:
				used++
			}
			s.events += blocks[r].events
			envs += blocks[r].envs
		}
		if used < len(blocks) {
			return nil, fmt.Errorf("replay: rank %d block %d is never used", g, used)
		}
		if envs > len(s.payload) {
			return nil, fmt.Errorf("replay: %d envelopes in %d payload bytes: too many to re-cost", envs, len(s.payload))
		}
	}
	if c.off != len(c.data) {
		return nil, fmt.Errorf("replay: %d bytes after the last rank's stream", len(c.data)-c.off)
	}
	s.pairs = len(pairDst)

	// A receive's pair is (its peer, its rank), −1 if the peer never sends to
	// it: bucket the pairs by destination, then mark each rank's sources
	// (mark[src] == −(g+1)) and look its receives' peers up.
	for _, d := range pairDst {
		dstOff[d+1]++
	}
	for d := range nodes {
		dstOff[d+1] += dstOff[d]
	}
	for id, d := range pairDst {
		byDst[dstOff[d]] = int32(id)
		dstOff[d]++ // now where bucket d ends, and bucket d+1 starts
	}
	start := int32(0)
	for g := range nodes {
		for _, id := range byDst[start:dstOff[g]] {
			mark[pairSrc[id]], pid[pairSrc[id]] = -int32(g)-1, id
		}
		start = dstOff[g]
		for _, at := range recvs[recvOff[g]:recvOff[g+1]] {
			e := &s.dict[at]
			e.Pair = -1
			if mark[e.Peer] == -int32(g)-1 {
				e.Pair = pid[e.Peer]
			}
		}
	}

	// One schedule, one encoding: no rank's dictionary holds a block twice.
	for g := range nodes {
		lo, hi := s.streams[g].block, s.streams[g+1].block
		ids := order[lo:hi]
		for i := range ids {
			ids[i] = int32(lo + i)
		}
		slices.SortFunc(ids, s.compareBlocks)
		for i := 1; i < len(ids); i++ {
			if s.compareBlocks(ids[i-1], ids[i]) == 0 {
				a, b := min(ids[i-1], ids[i]), max(ids[i-1], ids[i])
				return nil, fmt.Errorf("replay: rank %d blocks %d and %d are equal", g, int(a)-lo, int(b)-lo)
			}
		}
	}
	return s, nil
}

// compareBlocks orders blocks a and b by their bytes.
func (s *Schedule) compareBlocks(a, b int32) int {
	x, y := &s.blocks[a], &s.blocks[b]
	return bytes.Compare(s.payload[x.off:x.end], s.payload[y.off:y.end])
}
