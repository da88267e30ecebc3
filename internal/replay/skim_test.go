package replay

import "testing"

// skim sizes the scan's event array, so it must step over exactly the bytes
// cursor.event reads for every kind that decodes: a block of one such event
// and two markers counts three events, and its sends and receives. A step
// short lands on a zero field, which is no kind; a step long skips a marker.
func TestSkimMatchesDecoder(t *testing.T) {
	for k := range 256 {
		c := cursor{data: append([]byte{byte(k)}, make([]byte, 16)...)} // every field zero
		var e event
		c.event(&e)
		if c.err != nil {
			if shapes[k].known {
				t.Errorf("kind %d: skim knows it, cursor.event fails: %v", k, c.err)
			}
			continue
		}
		block := append(c.data[:c.off:c.off], byte(KindRTFinal), byte(KindRTFinal))
		events, sends, recvs := skim(block)
		if events != 3 || sends != b2i(Kind(k) == KindSend) || recvs != b2i(Kind(k) == KindRecv) {
			t.Errorf("kind %v: skim counts %d events, %d sends, %d receives over its %d bytes and two markers", Kind(k), events, sends, recvs, c.off)
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
