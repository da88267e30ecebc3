package dist

import (
	"math/rand"
	"slices"
	"testing"
)

// checkTiling asserts the partition invariants: parts are ordered, tile
// [0,M) exactly, and Owner is the inverse of Lo/Hi.
func checkTiling(t *testing.T, p *Partition) {
	t.Helper()
	if p.Lo(0) != 0 {
		t.Fatalf("%v: first part starts at %d", p, p.Lo(0))
	}
	if p.Hi(p.N-1) != p.M {
		t.Fatalf("%v: last part ends at %d, want %d", p, p.Hi(p.N-1), p.M)
	}
	for s := 0; s < p.N; s++ {
		if p.Lo(s) > p.Hi(s) {
			t.Fatalf("%v: part %d is inverted", p, s)
		}
		if s > 0 && p.Lo(s) != p.Hi(s-1) {
			t.Fatalf("%v: gap between parts %d and %d", p, s-1, s)
		}
		if p.Size(s) != p.Hi(s)-p.Lo(s) {
			t.Fatalf("%v: Size(%d) = %d", p, s, p.Size(s))
		}
	}
	for j := 0; j < p.M; j++ {
		s := p.Owner(j)
		if j < p.Lo(s) || j >= p.Hi(s) {
			t.Fatalf("%v: Owner(%d) = %d but range is [%d,%d)", p, j, s, p.Lo(s), p.Hi(s))
		}
	}
}

func TestBlockPartitionTiles(t *testing.T) {
	for _, tc := range []struct{ m, n int }{
		{1, 1}, {10, 1}, {10, 10}, {11, 3}, {100, 7}, {64, 8}, {5, 8}, {0, 3},
	} {
		p := NewBlockPartition(tc.m, tc.n)
		if p.M != tc.m || p.N != tc.n {
			t.Fatalf("NewBlockPartition(%d,%d) reports M=%d N=%d", tc.m, tc.n, p.M, p.N)
		}
		checkTiling(t, p)
		// Uniform split: sizes differ by at most one, larger parts first.
		for s := 1; s < p.N; s++ {
			if d := p.Size(s-1) - p.Size(s); d < 0 || d > 1 {
				t.Fatalf("block partition %v: sizes not uniform at part %d", p, s)
			}
		}
	}
}

func TestBlockPartitionPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewBlockPartition(-1, 2) },
		func() { NewBlockPartition(4, 0) },
		func() { NewBlockPartition(8, 2).Owner(-1) },
		func() { NewBlockPartition(8, 2).Owner(8) },
		func() { NewBlockPartition(8, 2).RangeOfParts(1, 1) },
		func() { NewBlockPartition(8, 2).RangeOfParts(0, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestFromOffsets(t *testing.T) {
	p, err := FromOffsets([]int{0, 3, 3, 7, 10})
	if err != nil {
		t.Fatal(err)
	}
	if p.M != 10 || p.N != 4 {
		t.Fatalf("M=%d N=%d, want 10, 4", p.M, p.N)
	}
	checkTiling(t, p)
	if p.Size(1) != 0 {
		t.Fatalf("part 1 should be empty, has %d", p.Size(1))
	}
	// Empty parts never own anything.
	for j := 0; j < p.M; j++ {
		if p.Owner(j) == 1 {
			t.Fatalf("empty part owns index %d", j)
		}
	}
}

func TestFromOffsetsValidation(t *testing.T) {
	for _, bad := range [][]int{
		nil,
		{0},
		{1, 5},
		{0, 4, 3, 6},
		{-2, 0, 4},
	} {
		if _, err := FromOffsets(bad); err == nil {
			t.Fatalf("FromOffsets(%v) accepted", bad)
		}
	}
}

func TestFromOffsetsDoesNotAliasInput(t *testing.T) {
	offsets := []int{0, 2, 5}
	p, err := FromOffsets(offsets)
	if err != nil {
		t.Fatal(err)
	}
	offsets[1] = 99
	if p.Hi(0) != 2 {
		t.Fatal("partition aliases the caller's offsets slice")
	}
}

func TestRangeOfParts(t *testing.T) {
	p := NewBlockPartition(20, 4)
	lo, hi := p.RangeOfParts(1, 3)
	if lo != p.Lo(1) || hi != p.Hi(2) {
		t.Fatalf("RangeOfParts(1,3) = [%d,%d), want [%d,%d)", lo, hi, p.Lo(1), p.Hi(2))
	}
	lo, hi = p.RangeOfParts(0, 4)
	if lo != 0 || hi != 20 {
		t.Fatalf("full range = [%d,%d)", lo, hi)
	}
}

func TestOwnerFastPathMatchesSearch(t *testing.T) {
	// FromOffsets detects uniform layouts; defeat the detection with an
	// equivalent-but-shifted layout to compare both Owner paths.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		m := 1 + rng.Intn(200)
		n := 1 + rng.Intn(m)
		fast := NewBlockPartition(m, n)
		slow := &Partition{M: m, N: n, offsets: slices.Clone(fast.offsets), blockQ: -1}
		for j := 0; j < m; j++ {
			if fast.Owner(j) != slow.Owner(j) {
				t.Fatalf("m=%d n=%d: fast Owner(%d)=%d, search says %d",
					m, n, j, fast.Owner(j), slow.Owner(j))
			}
		}
	}
}

func TestRandomPartitionsTile(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(12)
		offsets := make([]int, n+1)
		for s := 1; s <= n; s++ {
			offsets[s] = offsets[s-1] + rng.Intn(9) // empty parts included
		}
		p, err := FromOffsets(offsets)
		if err != nil {
			t.Fatal(err)
		}
		if p.M > 0 {
			checkTiling(t, p)
		}
	}
}

func TestEqual(t *testing.T) {
	a := NewBlockPartition(12, 3)
	b := NewBlockPartition(12, 3)
	c := NewBlockPartition(12, 4)
	d, _ := FromOffsets([]int{0, 5, 8, 12})
	if !a.Equal(b) {
		t.Fatal("identical partitions not Equal")
	}
	if a.Equal(c) || a.Equal(d) || a.Equal(nil) {
		t.Fatal("different partitions Equal")
	}
	var nilP *Partition
	if !nilP.Equal(nil) {
		t.Fatal("nil partitions should be Equal")
	}
}

func TestUniformDetection(t *testing.T) {
	// A FromOffsets partition with the uniform layout gets the O(1) path.
	p, err := FromOffsets(NewBlockPartition(23, 5).offsets)
	if err != nil {
		t.Fatal(err)
	}
	if p.blockQ < 0 {
		t.Fatal("uniform layout not detected")
	}
	q, err := FromOffsets([]int{0, 1, 23})
	if err != nil {
		t.Fatal(err)
	}
	if q.blockQ >= 0 {
		t.Fatal("skewed layout misdetected as uniform")
	}
}
