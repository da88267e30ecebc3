package precond

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"esrp/internal/matgen"
	"esrp/internal/sparse"
	"esrp/internal/vec"
)

func TestIC0ExactOnPoisson(t *testing.T) {
	// For a tridiagonal-within-block pattern with no fill, IC(0) can be
	// inexact; but for any SPD block it must produce an SPD operator whose
	// Apply and SolveRestricted are mutual inverses.
	a := matgen.Poisson2D(12, 12)
	p, err := NewIC0(a, 0, a.Rows)
	if err != nil {
		t.Fatalf("NewIC0: %v", err)
	}
	if p.CouplesAcrossNodes() {
		t.Fatal("IC0 must be node-local")
	}
	checkApplyInverse(t, p, a.Rows, 1e-10)
}

func TestIC0ExactForDiagonal(t *testing.T) {
	// A diagonal matrix factors exactly: P = A⁻¹.
	b := sparse.NewBuilder(5, 5)
	d := []float64{4, 9, 16, 25, 36}
	for i, v := range d {
		b.Add(i, i, v)
	}
	a := b.Build()
	p, err := NewIC0(a, 0, 5)
	if err != nil {
		t.Fatalf("NewIC0: %v", err)
	}
	r := []float64{1, 2, 3, 4, 5}
	z := make([]float64, 5)
	p.Apply(z, r)
	for i := range z {
		if math.Abs(z[i]-r[i]/d[i]) > 1e-14 {
			t.Fatalf("z[%d] = %g, want %g", i, z[i], r[i]/d[i])
		}
	}
	if p.shift != 0 {
		t.Fatalf("diagonal matrix should not need a shift, got %g", p.shift)
	}
}

func TestIC0ExactWhenPatternComplete(t *testing.T) {
	// When the lower-triangular pattern equals the exact Cholesky factor's
	// pattern (e.g. a dense-banded SPD block with full fill inside the
	// band... simplest: a dense small block), IC(0) IS Cholesky, so
	// z = A⁻¹·r exactly.
	rng := rand.New(rand.NewSource(5))
	n := 8
	dense := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := rng.NormFloat64()
			dense[i*n+j] = v
			dense[j*n+i] = v
		}
	}
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				s += math.Abs(dense[i*n+j])
			}
		}
		dense[i*n+i] = s + 1
	}
	a := sparse.FromDense(n, n, dense, 0)
	p, err := NewIC0(a, 0, n)
	if err != nil {
		t.Fatalf("NewIC0: %v", err)
	}
	// Check A·(P·r) = r.
	r := make([]float64, n)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	z := make([]float64, n)
	p.Apply(z, r)
	az := make([]float64, n)
	a.MulVec(az, z)
	if d := vec.MaxAbsDiff(az, r); d > 1e-10 {
		t.Fatalf("dense IC0 should invert exactly; A·P·r off by %g", d)
	}
}

// checkApplyInverse verifies SolveRestricted(Apply(r)) == r: the two methods
// must be mutual inverses for the reconstruction algebra of Alg. 2 to hold.
func checkApplyInverse(t *testing.T, p Preconditioner, n int, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	r := make([]float64, n)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	z := make([]float64, n)
	p.Apply(z, r)
	back := make([]float64, n)
	p.SolveRestricted(back, z)
	if d := vec.MaxAbsDiff(back, r); d > tol {
		t.Fatalf("SolveRestricted(Apply(r)) deviates from r by %g (tol %g)", d, tol)
	}
}

func TestIC0ApplyInverseProperty(t *testing.T) {
	// Property: for random banded SPD matrices and random local ranges that
	// mimic node blocks, Apply and SolveRestricted invert each other.
	f := func(seed int64, nRaw, bwRaw uint8) bool {
		n := 20 + int(nRaw)%60
		bw := 1 + int(bwRaw)%6
		a := matgen.BandedSPD(n, bw, seed)
		lo, hi := n/4, n/4+n/2
		p, err := NewIC0(a, lo, hi)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed + 1))
		m := hi - lo
		r := make([]float64, m)
		for i := range r {
			r[i] = rng.NormFloat64()
		}
		z := make([]float64, m)
		p.Apply(z, r)
		back := make([]float64, m)
		p.SolveRestricted(back, z)
		return vec.MaxAbsDiff(back, r) < 1e-8*(1+vec.NormInf(r))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestIC0ReducesIterationsVsBlockJacobi(t *testing.T) {
	// IC(0) over the whole local block uses strictly more coupling than
	// 10-row block Jacobi, so PCG preconditioned with it must converge in
	// fewer iterations. Measured here with a direct power-style check: the
	// preconditioned operator's effectiveness is observed through an actual
	// sequential PCG in the core tests; at the precond level we check SPD
	// sanity of Apply via positivity of rᵀ·P·r on random vectors.
	a := matgen.EmiliaLike(6, 6, 6, 7)
	p, err := NewIC0(a, 0, a.Rows)
	if err != nil {
		t.Fatalf("NewIC0: %v", err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		r := make([]float64, a.Rows)
		for i := range r {
			r[i] = rng.NormFloat64()
		}
		z := make([]float64, a.Rows)
		p.Apply(z, r)
		if dot := vec.Dot(r, z); dot <= 0 {
			t.Fatalf("trial %d: rᵀ·P·r = %g, P not positive definite", trial, dot)
		}
	}
}

func TestIC0BreakdownShift(t *testing.T) {
	// A matrix that is SPD but whose zero-fill factorization breaks down:
	// classic example needs indefinite-ish fill; force the path by building
	// a barely-SPD arrowhead matrix where dropping fill produces a negative
	// pivot.
	n := 6
	b := sparse.NewBuilder(n, n)
	for j := 1; j < n; j++ {
		b.AddSym(0, j, 1.0)
	}
	for i := 0; i < n; i++ {
		if i == 0 {
			b.Add(0, 0, float64(n)-1+0.5)
		} else {
			b.Add(i, i, 1.01)
		}
	}
	a := b.Build()
	p, err := NewIC0(a, 0, n)
	if err != nil {
		// Breakdown beyond shifting is acceptable only if the matrix is not
		// SPD; here it is, so any error is a failure.
		t.Fatalf("NewIC0: %v", err)
	}
	// Whether or not a shift was needed, the operator must be usable.
	checkApplyInverse(t, p, n, 1e-8)
}

func TestIC0EmptyRange(t *testing.T) {
	a := matgen.Poisson2D(4, 4)
	p, err := NewIC0(a, 8, 8)
	if err != nil {
		t.Fatalf("NewIC0 on empty range: %v", err)
	}
	p.Apply(nil, nil)
	p.SolveRestricted(nil, nil)
}

func TestIC0BuildAndParse(t *testing.T) {
	a := matgen.Poisson2D(6, 6)
	p, err := Build(IC0, a, 0, 36, 10)
	if err != nil {
		t.Fatalf("Build(IC0): %v", err)
	}
	if _, ok := p.(*IC0PC); !ok {
		t.Fatalf("Build(IC0) built a %T", p)
	}
	k, err := ParseKind("ic0")
	if err != nil || k != IC0 {
		t.Fatalf("ParseKind(ic0) = %v, %v", k, err)
	}
	if IC0.String() != "ic0" {
		t.Fatalf("String() = %q", IC0.String())
	}
}

// TestIC0BandApplyBitwise pins the band substitution sweeps to the generic
// CSR sweeps bit for bit: on a stencil block the factor decomposes into long
// shifted runs (the band path), and forcing runs off must reproduce the
// exact same z.
func TestIC0BandApplyBitwise(t *testing.T) {
	a := matgen.Poisson3D(5, 5, 12)
	p, err := NewIC0(a, 60, 240)
	if err != nil {
		t.Fatal(err)
	}
	if p.runs == nil {
		t.Fatal("stencil factor did not take the band substitution path")
	}
	rng := rand.New(rand.NewSource(11))
	r := make([]float64, p.n)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	band := make([]float64, p.n)
	p.Apply(band, r)
	generic := make([]float64, p.n)
	runs := p.runs
	p.runs = nil
	p.Apply(generic, r)
	p.runs = runs
	for i := range band {
		if math.Float64bits(band[i]) != math.Float64bits(generic[i]) {
			t.Fatalf("z[%d]: band %x != generic %x", i,
				math.Float64bits(band[i]), math.Float64bits(generic[i]))
		}
	}
}

// TestIC0IrregularSkipsBandRuns: a random-pattern factor must keep the
// generic sweeps (short runs would cost more than they save).
func TestIC0IrregularSkipsBandRuns(t *testing.T) {
	a := matgen.BandedSPD(120, 9, 3)
	p, err := NewIC0(a, 0, 120)
	if err != nil {
		t.Fatal(err)
	}
	if p.runs != nil {
		t.Fatalf("random banded factor took the band path (%d runs over %d rows)", len(p.runs), p.n)
	}
}
