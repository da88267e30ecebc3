//go:build unix

package ccache

import "testing"

// A warm read builds its entry path on the stack, so a hit costs the
// decode's objects plus the NUL-terminated copy of the path syscall.Open
// makes, and a miss costs that copy alone — however many events the entry
// holds.
func TestGetResultAllocations(t *testing.T) {
	c := openTestCache(t)
	hit, miss := goldenInput().Key(), Key{}
	payload := sweepEntries(t)["esr-shrink-skipped.res"]
	if err := writeFileAtomic(string(c.entryPath(nil, resultTierDir, hit, ".res")), frame(payload)); err != nil {
		t.Fatal(err)
	}
	e, ok := c.GetResult(hit)
	if !ok {
		t.Fatal("the entry misses")
	}
	// The entry GetResult returns, the event slice, the rank array (Kernels
	// is interned); the path's copy.
	if got := testing.AllocsPerRun(100, func() { c.GetResult(hit) }); got > 3+1 {
		t.Errorf("%v allocations per hit on a %d-event entry, want at most 4", got, len(e.Result.Recoveries))
	}
	if got := testing.AllocsPerRun(100, func() { c.GetResult(miss) }); got > 1 {
		t.Errorf("%v allocations per miss, want at most 1", got)
	}
	if st := c.Stats(); st.Corrupt != 0 {
		t.Errorf("%d entries counted corrupt", st.Corrupt)
	}
}
