package aspmv

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"esrp/internal/cluster"
	"esrp/internal/dist"
	"esrp/internal/matgen"
	"esrp/internal/sparse"
)

func testModel() cluster.CostModel {
	return cluster.CostModel{FlopTime: 1e-9, Latency: 1e-6, BytePeriod: 1e-9, Overhead: 1e-7}
}

func TestDesignatedEq1(t *testing.T) {
	// d_{s,k}: k odd → s+⌈k/2⌉, k even → s−k/2 (mod N).
	n := 10
	cases := []struct{ s, k, want int }{
		{3, 1, 4}, {3, 2, 2}, {3, 3, 5}, {3, 4, 1}, {3, 5, 6}, {3, 6, 0},
		{0, 2, 9}, // wraps below zero
		{9, 1, 0}, // wraps above n
	}
	for _, c := range cases {
		if got := Designated(c.s, c.k, n); got != c.want {
			t.Fatalf("Designated(%d,%d,%d) = %d, want %d", c.s, c.k, n, got, c.want)
		}
	}
}

func TestDesignatedDistinctNearestNeighbours(t *testing.T) {
	n := 16
	for s := 0; s < n; s++ {
		seen := map[int]bool{s: true}
		for k := 1; k <= 8; k++ {
			d := Designated(s, k, n)
			if seen[d] {
				t.Fatalf("s=%d k=%d: destination %d repeated", s, k, d)
			}
			seen[d] = true
		}
	}
}

func TestNewPlanTridiagonal(t *testing.T) {
	// Tridiagonal matrix on 4 nodes × 2 rows: each node exchanges exactly
	// the boundary entries with its neighbours.
	a := matgen.BandedSPD(8, 1, 1)
	part := dist.NewBlockPartition(8, 4)
	p, err := NewPlan(a, part)
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 (rows 2,3) needs column 1 from node 0 and column 4 from node 2
	// (when those couplings exist in the random pattern); every transfer
	// index must be owned by the peer.
	for s := 0; s < 4; s++ {
		for _, tr := range p.Recv[s] {
			if tr.Peer == s {
				t.Fatalf("node %d receives from itself", s)
			}
			for _, i := range tr.Idx {
				if part.Owner(i) != tr.Peer {
					t.Fatalf("node %d receives index %d from %d, owner %d", s, i, tr.Peer, part.Owner(i))
				}
			}
		}
	}
}

func TestPlanSendRecvMirror(t *testing.T) {
	a := matgen.EmiliaLike(4, 4, 4, 3)
	part := dist.NewBlockPartition(64, 8)
	p, err := NewPlan(a, part)
	if err != nil {
		t.Fatal(err)
	}
	// Every Send[s]→l transfer must appear as Recv[l]←s with identical
	// indices.
	for s := 0; s < 8; s++ {
		for _, snd := range p.Send[s] {
			found := false
			for _, rcv := range p.Recv[snd.Peer] {
				if rcv.Peer != s {
					continue
				}
				found = true
				if len(rcv.Idx) != len(snd.Idx) {
					t.Fatalf("mirror length mismatch %d→%d", s, snd.Peer)
				}
				for k := range rcv.Idx {
					if rcv.Idx[k] != snd.Idx[k] {
						t.Fatalf("mirror index mismatch %d→%d", s, snd.Peer)
					}
				}
			}
			if !found {
				t.Fatalf("send %d→%d has no mirror", s, snd.Peer)
			}
		}
	}
}

func TestPlanRejectsBadShapes(t *testing.T) {
	b := sparse.NewBuilder(3, 4)
	b.Add(0, 0, 1)
	if _, err := NewPlan(b.Build(), dist.NewBlockPartition(3, 1)); err == nil {
		t.Fatal("non-square matrix must be rejected")
	}
	a := matgen.Poisson2D(2, 2)
	if _, err := NewPlan(a, dist.NewBlockPartition(5, 1)); err == nil {
		t.Fatal("partition size mismatch must be rejected")
	}
}

func TestAugmentValidation(t *testing.T) {
	a := matgen.Poisson2D(4, 4)
	part := dist.NewBlockPartition(16, 4)
	p, err := NewPlan(a, part)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Augment(0); err == nil {
		t.Fatal("phi=0 must be rejected")
	}
	if err := p.Augment(4); err == nil {
		t.Fatal("phi ≥ n must be rejected")
	}
	if err := p.Augment(3); err != nil {
		t.Fatal(err)
	}
}

// The paper's central redundancy guarantee: after Augment(phi), every vector
// entry has at least phi+1 distinct holders.
func TestAugmentRedundancyInvariant(t *testing.T) {
	for _, tc := range []struct {
		name  string
		a     *sparse.CSR
		nodes int
		phi   int
	}{
		{"poisson2d-phi1", matgen.Poisson2D(8, 8), 8, 1},
		{"poisson2d-phi3", matgen.Poisson2D(8, 8), 8, 3},
		{"emilia-phi1", matgen.EmiliaLike(4, 4, 4, 1), 8, 1},
		{"emilia-phi3", matgen.EmiliaLike(4, 4, 4, 1), 8, 3},
		{"emilia-phi8", matgen.EmiliaLike(5, 5, 5, 1), 12, 8},
		{"audikw-phi3", matgen.AudikwLike(3, 3, 3, 3, 1), 9, 3},
		{"diagonal-phi2", sparse.Identity(12), 6, 2}, // no product traffic at all
	} {
		part := dist.NewBlockPartition(tc.a.Rows, tc.nodes)
		p, err := NewPlan(tc.a, part)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := p.Augment(tc.phi); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := p.VerifyRedundancy(tc.phi); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

// Property-based version over random banded patterns, node counts, and phi.
func TestAugmentRedundancyInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 24 + rng.Intn(40)
		bw := 1 + rng.Intn(5)
		nodes := 4 + rng.Intn(8)
		phi := 1 + rng.Intn(3)
		if phi > nodes-1 {
			phi = nodes - 1
		}
		a := matgen.BandedSPD(n, bw, seed)
		part := dist.NewBlockPartition(n, nodes)
		p, err := NewPlan(a, part)
		if err != nil {
			return false
		}
		if err := p.Augment(phi); err != nil {
			return false
		}
		return p.VerifyRedundancy(phi) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Augmentation must not ship more copies than needed: for an entry already
// received by ≥ phi nodes in the plain product, no extras are sent.
func TestAugmentNoWasteWhenProductCovers(t *testing.T) {
	// A dense small matrix: every node needs every column, so the plain
	// product already replicates everything n-1 times.
	n := 12
	b := sparse.NewBuilder(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := -1.0
			if i == j {
				v = float64(n) + 1
			}
			b.Add(i, j, v)
		}
	}
	part := dist.NewBlockPartition(n, 6)
	p, err := NewPlan(b.Build(), part)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Augment(3); err != nil {
		t.Fatal(err)
	}
	extra, regular := p.ExtraTraffic()
	if extra != 0 {
		t.Fatalf("dense matrix needs no extra copies, got %d (regular %d)", extra, regular)
	}
}

// Section 2.2.1 ships exactly the copies the plain product leaves missing:
// an entry i that m(i) non-owner nodes already receive for the product gets
// max(0, φ − m(i)) resilient copies, so the extra traffic is the sum of those
// and every entry ends with φ+1 holders.
func TestAugmentShipsMinimalCopies(t *testing.T) {
	f := func(seed int64, bwRaw, nodesRaw, phiRaw uint8) bool {
		bw := 1 + int(bwRaw)%8
		nodes := 3 + int(nodesRaw)%6
		phi := 1 + int(phiRaw)%(nodes-1)
		a := matgen.BandedSPD(240, bw, seed)
		p, err := NewPlan(a, dist.NewBlockPartition(a.Rows, nodes))
		if err != nil {
			t.Log(err)
			return false
		}
		m := make([]int, a.Rows)
		for s := range p.Send {
			for _, tr := range p.Send[s] {
				for _, i := range tr.Idx {
					m[i]++
				}
			}
		}
		want := 0
		for _, mi := range m {
			want += max(0, phi-mi)
		}
		if err := p.Augment(phi); err != nil {
			t.Log(err)
			return false
		}
		if extra, _ := p.ExtraTraffic(); extra != want {
			t.Logf("bw %d, %d nodes, φ = %d: %d extra entries, want %d", bw, nodes, phi, extra, want)
			return false
		}
		if err := p.VerifyRedundancy(phi); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestExtraTrafficGrowsWithPhi(t *testing.T) {
	a := matgen.EmiliaLike(5, 5, 5, 2)
	part := dist.NewBlockPartition(a.Rows, 10)
	extras := make(map[int]int)
	for _, phi := range []int{1, 3, 8} {
		p, err := NewPlan(a, part)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Augment(phi); err != nil {
			t.Fatal(err)
		}
		extras[phi], _ = p.ExtraTraffic()
	}
	// A 27-point stencil already ships every entry to at least one
	// neighbour, so phi=1 may need no extras at all; higher targets must
	// cost monotonically more and phi=8 strictly more than phi=3.
	if extras[1] > extras[3] || extras[3] >= extras[8] {
		t.Fatalf("extra traffic not monotone in phi: %v", extras)
	}
	if extras[8] == 0 {
		t.Fatal("phi=8 must require extra copies on a banded matrix")
	}
}

// Distributed exchange must produce exactly the sequential product.
func TestExchangeMatchesSequentialSpMV(t *testing.T) {
	a := matgen.EmiliaLike(4, 4, 4, 5)
	m := a.Rows
	part := dist.NewBlockPartition(m, 8)
	plan, err := NewPlan(a, part)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, m)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	want := make([]float64, m)
	a.MulVec(want, x)

	got := make([]float64, m)
	comm := cluster.New(8, testModel())
	err = comm.Run(func(nd *cluster.Node) {
		lo, hi := part.Lo(nd.Rank()), part.Hi(nd.Rank())
		full := make([]float64, m)
		copy(full[lo:hi], x[lo:hi])
		plan.Exchange(nd, full)
		local := make([]float64, hi-lo)
		a.MulVecRows(local, full, lo, hi)
		parts := nd.Gather(0, local)
		if nd.Rank() == 0 {
			for s, p := range parts {
				copy(got[part.Lo(s):part.Hi(s)], p)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12*(1+math.Abs(want[i])) {
			t.Fatalf("entry %d: %g vs %g", i, got[i], want[i])
		}
	}
}

// The augmented exchange must (a) still produce the right product inputs and
// (b) leave every entry recoverable from the union of retained copies.
func TestExchangeAugmentedRetainsAllEntries(t *testing.T) {
	a := matgen.EmiliaLike(4, 4, 4, 6)
	m := a.Rows
	nodes, phi := 8, 3
	part := dist.NewBlockPartition(m, nodes)
	plan, err := NewPlan(a, part)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Augment(phi); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, m)
	for i := range x {
		x[i] = float64(i)*0.25 - 3
	}
	copies := make([]ReceivedCopy, nodes)
	comm := cluster.New(nodes, testModel())
	err = comm.Run(func(nd *cluster.Node) {
		lo, hi := part.Lo(nd.Rank()), part.Hi(nd.Rank())
		full := make([]float64, m)
		copy(full[lo:hi], x[lo:hi])
		copies[nd.Rank()] = plan.ExchangeAugmented(nd, full, 7)
	})
	if err != nil {
		t.Fatal(err)
	}
	// For every possible contiguous failure of ≤ phi nodes, the union of
	// surviving retained copies must cover all lost entries with the right
	// values.
	for f0 := 0; f0 < nodes; f0++ {
		for w := 1; w <= phi && f0+w <= nodes; w++ {
			lost := map[int]bool{}
			for i := part.Lo(f0); i < part.Hi(f0+w-1+1-1); i++ {
				_ = i
			}
			flo, fhi := part.RangeOfParts(f0, f0+w)
			for i := flo; i < fhi; i++ {
				lost[i] = false
			}
			for s := 0; s < nodes; s++ {
				if s >= f0 && s < f0+w {
					continue // failed
				}
				idx, val := copies[s].Lookup(flo, fhi)
				for k, gi := range idx {
					if val[k] != x[gi] {
						t.Fatalf("node %d retained wrong value for %d: %g vs %g", s, gi, val[k], x[gi])
					}
					lost[gi] = true
				}
			}
			for gi, ok := range lost {
				if !ok {
					t.Fatalf("failure [%d,+%d): entry %d unrecoverable", f0, w, gi)
				}
			}
		}
	}
	for s := range copies {
		if copies[s].Iter != 7 {
			t.Fatalf("copy iter = %d, want 7", copies[s].Iter)
		}
	}
}

func TestExchangeAugmentedPanicsWithoutAugment(t *testing.T) {
	a := matgen.Poisson2D(4, 4)
	part := dist.NewBlockPartition(16, 4)
	plan, err := NewPlan(a, part)
	if err != nil {
		t.Fatal(err)
	}
	comm := cluster.New(4, testModel())
	runErr := comm.Run(func(nd *cluster.Node) {
		full := make([]float64, 16)
		plan.ExchangeAugmented(nd, full, 0)
	})
	if runErr == nil {
		t.Fatal("ExchangeAugmented on plain plan must fail")
	}
}

func TestReceivedCopyLookup(t *testing.T) {
	c := ReceivedCopy{Iter: 1, Idx: []int{2, 5, 9, 14}, Val: []float64{20, 50, 90, 140}}
	idx, val := c.Lookup(5, 14)
	if len(idx) != 2 || idx[0] != 5 || idx[1] != 9 || val[0] != 50 || val[1] != 90 {
		t.Fatalf("Lookup(5,14) = %v %v", idx, val)
	}
	if idx, _ := c.Lookup(0, 2); len(idx) != 0 {
		t.Fatal("empty range lookup must be empty")
	}
}

func TestHoldersIncludeOwner(t *testing.T) {
	a := matgen.Poisson2D(6, 6)
	part := dist.NewBlockPartition(36, 6)
	p, err := NewPlan(a, part)
	if err != nil {
		t.Fatal(err)
	}
	for i, hs := range p.Holders() {
		owner := part.Owner(i)
		found := false
		for _, h := range hs {
			if h == owner {
				found = true
			}
		}
		if !found {
			t.Fatalf("entry %d: owner %d missing from holders %v", i, owner, hs)
		}
	}
}
