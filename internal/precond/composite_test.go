package precond

import (
	"math/rand"
	"testing"

	"esrp/internal/matgen"
	"esrp/internal/vec"
)

func TestCompositeMatchesSegments(t *testing.T) {
	// A composite of the per-node preconditioners over [0,n) must act like
	// the node-local pieces applied independently.
	a := matgen.EmiliaLike(5, 5, 5, 3)
	n := a.Rows
	mid := n / 2
	p1, err := NewBlockJacobi(a, 0, mid, 10)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewBlockJacobi(a, mid, n, 10)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := NewComposite([]Preconditioner{p1, p2}, []int{mid, n - mid})
	if err != nil {
		t.Fatal(err)
	}
	if comp.total != n {
		t.Fatalf("Len = %d, want %d", comp.total, n)
	}
	if comp.CouplesAcrossNodes() {
		t.Fatal("composite of node-local parts must be node-local")
	}

	rng := rand.New(rand.NewSource(1))
	r := make([]float64, n)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	zc := make([]float64, n)
	comp.Apply(zc, r)
	zs := make([]float64, n)
	p1.Apply(zs[:mid], r[:mid])
	p2.Apply(zs[mid:], r[mid:])
	if d := vec.MaxAbsDiff(zc, zs); d != 0 {
		t.Fatalf("composite Apply differs from segments by %g", d)
	}

	// SolveRestricted must invert Apply segment-wise.
	back := make([]float64, n)
	comp.SolveRestricted(back, zc)
	if d := vec.MaxAbsDiff(back, r); d > 1e-9 {
		t.Fatalf("SolveRestricted(Apply(r)) off by %g", d)
	}

	if comp.ApplyFlops() != p1.ApplyFlops()+p2.ApplyFlops() {
		t.Fatal("ApplyFlops must sum the segments")
	}
	if comp.SolveRestrictedFlops() != p1.SolveRestrictedFlops()+p2.SolveRestrictedFlops() {
		t.Fatal("SolveRestrictedFlops must sum the segments")
	}
}

func TestCompositeMixedKinds(t *testing.T) {
	a := matgen.Poisson2D(10, 10)
	p1, err := NewIC0(a, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewBlockJacobi(a, 50, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := NewComposite([]Preconditioner{p1, p2}, []int{50, 50})
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, 100)
	for i := range r {
		r[i] = float64(i%7) - 3
	}
	z := make([]float64, 100)
	comp.Apply(z, r)
	back := make([]float64, 100)
	comp.SolveRestricted(back, z)
	if d := vec.MaxAbsDiff(back, r); d > 1e-8 {
		t.Fatalf("mixed composite inverse off by %g", d)
	}
}

func TestCompositeValidation(t *testing.T) {
	a := matgen.Poisson2D(4, 4)
	p1, _ := NewBlockJacobi(a, 0, 8, 10)
	if _, err := NewComposite([]Preconditioner{p1}, []int{8, 8}); err == nil {
		t.Error("mismatched parts/sizes must fail")
	}
	if _, err := NewComposite([]Preconditioner{p1}, []int{-1}); err == nil {
		t.Error("negative size must fail")
	}
	comp, err := NewComposite(nil, nil)
	if err != nil {
		t.Fatalf("empty composite: %v", err)
	}
	comp.Apply(nil, nil) // must not panic
	if comp.total != 0 {
		t.Fatalf("empty Len = %d", comp.total)
	}
}
