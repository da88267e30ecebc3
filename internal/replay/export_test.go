package replay

import "unsafe"

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
	return s.dictEvs, refs
}

// EventBytes is what one decoded event occupies in the re-cost walk's
// array.
const EventBytes = int(unsafe.Sizeof(event{}))
