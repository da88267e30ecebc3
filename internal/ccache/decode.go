package ccache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"unicode/utf8"

	"esrp/internal/core"
)

// decodeResultEntry decodes a result-tier payload. The manifest pins every
// entry to the build that reads it, so the payload is exactly what
// PutResult's json.Marshal wrote — fields in struct order, no whitespace —
// and the decoder walks that one layout instead of a general JSON document:
// a key out of place, a stray space or a trailing byte is an error, which
// GetResult counts corrupt like any other undecodable entry. Whatever it
// does accept, it reads as encoding/json would (FuzzDecodeResultEntry is
// the differential), and TestDecodeResultEntryRoundTrip fails when a field
// is added to ResultEntry, CellResult, cluster.CostModel or
// core.RecoveryEvent without its line here.
func decodeResultEntry(data []byte) (*ResultEntry, error) {
	c := &cursor{data: data}
	e := &ResultEntry{}
	m, r := &e.Model, &e.Result
	c.lit(`{"model":{"FlopTime":`)
	m.FlopTime = c.float()
	c.lit(`,"Latency":`)
	m.Latency = c.float()
	c.lit(`,"BytePeriod":`)
	m.BytePeriod = c.float()
	c.lit(`,"Overhead":`)
	m.Overhead = c.float()
	c.lit(`},"result":{"converged":`)
	r.Converged = c.bool()
	c.lit(`,"iterations":`)
	r.Iterations = c.int()
	c.lit(`,"total_steps":`)
	r.TotalSteps = c.int()
	c.lit(`,"rel_residual":`)
	r.RelResidual = c.float()
	c.lit(`,"sim_time_s":`)
	r.SimTime = c.float()
	c.lit(`,"recovery_time_s":`)
	r.RecoveryTime = c.float()
	c.lit(`,"wasted_iters":`)
	r.WastedIters = c.int()
	c.lit(`,"drift":`)
	r.Drift = c.float()
	c.lit(`,"max_node_bytes":`)
	r.MaxNodeBytes = c.int64()
	c.lit(`,"halo_bytes":`)
	r.HaloBytes = c.int64()
	c.lit(`,"bytes_sent":`)
	r.BytesSent = c.int64()
	c.lit(`,"active_nodes":`)
	r.ActiveNodes = c.int()
	if c.has(`,"kernels":`) {
		r.Kernels = string(c.str())
	}
	if c.has(`,"recoveries":[`) {
		// Sized by the events' opening key, so filling it never regrows; text
		// that merely looks like one (inside a string) only over-reserves,
		// still within a small multiple of the payload's length.
		r.Recoveries = make([]core.RecoveryEvent, 0, bytes.Count(data[c.off:], []byte(recoveryOpen)))
		// Every event's ranks are parsed into one scratch list, and each
		// event's rank count (-1 for null) into another. Both start on the
		// stack, so the ranks cost one array however many events there are;
		// only an entry of more than 32 events or 128 ranks regrows them.
		var rankStack [128]int
		var countStack [32]int
		ranks, counts := rankStack[:0], countStack[:0]
		for {
			ev, more, n := c.recovery(ranks)
			r.Recoveries = append(r.Recoveries, ev)
			ranks, counts = more, append(counts, n)
			if !c.has(",") { // also where a failed cursor stops: it is parked at the end
				break
			}
		}
		c.lit("]")
		if c.err == nil {
			shareRanks(r.Recoveries, slices.Clone(ranks), counts)
		}
	}
	c.lit(`}}`)
	if c.off != len(data) { // a failed cursor is parked at the end
		c.fail("trailing bytes")
	}
	if c.err != nil {
		return nil, c.err
	}
	return e, nil
}

// cursor reads the result layout off a byte slice. The first failure
// sticks and parks the cursor at the end, so later reads return zeros and
// decodeResultEntry checks err once.
type cursor struct {
	data []byte
	off  int
	err  error
}

func (c *cursor) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("ccache: result entry: %s at offset %d", what, c.off)
	}
	c.off = len(c.data)
}

// has consumes s if the payload continues with it.
func (c *cursor) has(s string) bool {
	if len(c.data)-c.off < len(s) || string(c.data[c.off:c.off+len(s)]) != s {
		return false
	}
	c.off += len(s)
	return true
}

// lit consumes s, which the layout requires here.
func (c *cursor) lit(s string) {
	if !c.has(s) {
		c.fail("expected " + s)
	}
}

func (c *cursor) bool() bool {
	switch {
	case c.has("true"):
		return true
	case c.has("false"):
	default:
		c.fail("expected a boolean")
	}
	return false
}

// digits consumes a run of decimal digits and reports its length.
func (c *cursor) digits() int {
	start := c.off
	for c.off < len(c.data) && c.data[c.off]-'0' <= 9 {
		c.off++
	}
	return c.off - start
}

// number consumes one number of the JSON grammar (which is what keeps Go
// spellings strconv also takes — hex, underscores, Inf — out) and returns
// its text; integer stops before a fraction or exponent, which then trips
// the literal that must follow.
func (c *cursor) number(integer bool) []byte {
	start := c.off
	c.has("-")
	if !c.has("0") && c.digits() == 0 {
		c.fail("expected a number")
		return nil
	}
	if !integer {
		if c.has(".") && c.digits() == 0 {
			c.fail("expected fraction digits")
			return nil
		}
		if c.has("e") || c.has("E") {
			if !c.has("+") {
				c.has("-")
			}
			if c.digits() == 0 {
				c.fail("expected exponent digits")
				return nil
			}
		}
	}
	return c.data[start:c.off]
}

func (c *cursor) float() float64 {
	v, err := strconv.ParseFloat(string(c.number(false)), 64)
	if err != nil {
		c.fail("float out of range")
	}
	return v
}

func (c *cursor) integer(bits int) int64 {
	v, err := strconv.ParseInt(string(c.number(true)), 10, bits)
	if err != nil {
		c.fail("integer out of range")
	}
	return v
}

func (c *cursor) int() int     { return int(c.integer(strconv.IntSize)) }
func (c *cursor) int64() int64 { return c.integer(64) }

// str consumes a string and returns its contents. What the cold path
// writes — printable, unescaped, valid UTF-8 — is returned as a view of the
// payload; a string with an escape, a control byte or broken UTF-8 goes
// through encoding/json's own unquoting, whose replacement and surrogate
// rules are the contract.
func (c *cursor) str() []byte {
	c.lit(`"`)
	start, plain := c.off, true
	for c.off < len(c.data) && c.data[c.off] != '"' {
		switch b := c.data[c.off]; {
		case b == '\\':
			plain = false
			c.off++ // the escaped byte is not the closing quote
		case b < ' ':
			plain = false
		}
		c.off++
	}
	if c.off >= len(c.data) {
		c.fail("unterminated string")
		return nil
	}
	body := c.data[start:c.off]
	c.off++
	if plain && utf8.Valid(body) {
		return body
	}
	var s string
	if err := json.Unmarshal(c.data[start-1:c.off], &s); err != nil {
		c.off = start
		c.fail("malformed string")
		return nil
	}
	return []byte(s)
}

// internMode returns the core.Recovery* constant b spells, so a warm
// cell's events cost no string each; any other mode is copied out.
func internMode(b []byte) string {
	for _, mode := range [...]string{core.RecoverySpare, core.RecoveryShrink, core.RecoveryRestart, core.RecoverySkipped} {
		if string(b) == mode {
			return mode
		}
	}
	return string(b)
}

// recoveryOpen is how every element of "recoveries" starts.
const recoveryOpen = `{"iteration":`

// recovery consumes one element of "recoveries". It appends the event's
// ranks to the scratch list ranks and returns the list with the event's rank
// count, -1 for null; decodeResultEntry hands the ranks out once the list is
// closed. The list is passed by value, not kept on the cursor: an array the
// cursor pointed into would move the cursor to the heap.
func (c *cursor) recovery(ranks []int) (ev core.RecoveryEvent, _ []int, n int) {
	c.lit(recoveryOpen)
	ev.Iteration = c.int()
	c.lit(`,"ranks":`)
	n = -1
	if !c.has("null") {
		c.lit("[")
		start := len(ranks)
		if !c.has("]") {
			for {
				ranks = append(ranks, c.int())
				if !c.has(",") {
					break
				}
			}
			c.lit("]")
		}
		n = len(ranks) - start
	}
	c.lit(`,"mode":`)
	ev.Mode = internMode(c.str())
	c.lit(`,"recovered_at":`)
	ev.RecoveredAt = c.int()
	c.lit(`,"wasted_iters":`)
	ev.WastedIters = c.int()
	c.lit(`,"spares_left":`)
	ev.SparesLeft = c.int()
	c.lit(`,"active_nodes":`)
	ev.ActiveNodes = c.int()
	c.lit("}")
	return ev, ranks, n
}

// shareRanks gives event i the next counts[i] ranks of all, as a sub-slice
// whose capacity ends where its ranks do, so appending to one event's ranks
// never writes into the next's. A count of -1 leaves the ranks nil, as
// encoding/json reads null; 0 gives an empty non-nil slice, as it reads [].
func shareRanks(events []core.RecoveryEvent, all []int, counts []int) {
	off := 0
	for i, n := range counts {
		if n >= 0 {
			events[i].Ranks = all[off : off+n : off+n]
			off += n
		}
	}
}
