package replay

import (
	"encoding/binary"
	"unsafe"
)

// DictStats returns what a schedule's dictionaries and references hold: the
// events of its distinct blocks, each block counted once, and the block
// references of all ranks.
func DictStats(s *Schedule) (events, refs int) {
	for _, st := range s.streams {
		for _, b := range st.refs {
			if b < 0x80 { // the last byte of a varint
				refs++
			}
		}
	}
	return len(s.dict), refs
}

// KindCounts follows every rank's block references, as the re-cost walk
// does, and counts the events of each kind by name, every block occurrence
// counted. It also returns the distinct blocks of all ranks.
func KindCounts(s *Schedule) (kinds map[string]int, blocks int) {
	kinds = map[string]int{}
	for g := range s.Nodes {
		st := &s.streams[g]
		for off := 0; off < len(st.refs); {
			r, w := binary.Uvarint(st.refs[off:])
			off += w
			b := &s.blocks[st.block+int(r)]
			for _, e := range s.dict[b.first : b.first+b.events] {
				kinds[e.Kind.String()]++
			}
		}
	}
	return kinds, len(s.blocks)
}

// EventBytes is what one decoded event occupies in the re-cost walk's
// array.
const EventBytes = int(unsafe.Sizeof(event{}))
