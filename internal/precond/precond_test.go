package precond

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"esrp/internal/cpu"
	"esrp/internal/dense"
	"esrp/internal/matgen"
	"esrp/internal/sparse"
)

func TestKindStringAndParse(t *testing.T) {
	for _, k := range []Kind{None, Jacobi, BlockJacobi} {
		parsed, err := ParseKind(k.String())
		if err != nil {
			t.Fatal(err)
		}
		if parsed != k {
			t.Fatalf("parse(%q) = %v", k.String(), parsed)
		}
	}
	if _, err := ParseKind("nonsense"); err == nil {
		t.Fatal("unknown kind must error")
	}
	for _, alias := range []string{"identity", "bj", "blockjacobi"} {
		if _, err := ParseKind(alias); err != nil {
			t.Fatalf("alias %q: %v", alias, err)
		}
	}
}

func TestIdentity(t *testing.T) {
	p := Identity{n: 3}
	r := []float64{1, 2, 3}
	z := make([]float64, 3)
	p.Apply(z, r)
	if z[1] != 2 {
		t.Fatal("identity Apply must copy")
	}
	p.SolveRestricted(z, r)
	if z[2] != 3 {
		t.Fatal("identity SolveRestricted must copy")
	}
	if p.ApplyFlops() != 0 || p.SolveRestrictedFlops() != 0 || p.CouplesAcrossNodes() {
		t.Fatal("identity metadata wrong")
	}
}

func TestJacobi(t *testing.T) {
	a := matgen.Poisson2D(3, 3) // diagonal 4 everywhere
	p, err := NewJacobi(a, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	r := []float64{4, 8, 12, 16}
	z := make([]float64, 4)
	p.Apply(z, r)
	for i := range z {
		if z[i] != r[i]/4 {
			t.Fatalf("Jacobi Apply[%d] = %g", i, z[i])
		}
	}
	// SolveRestricted inverts Apply.
	back := make([]float64, 4)
	p.SolveRestricted(back, z)
	for i := range back {
		if math.Abs(back[i]-r[i]) > 1e-14 {
			t.Fatalf("SolveRestricted∘Apply ≠ id at %d", i)
		}
	}
}

func TestJacobiRejectsNonPositiveDiagonal(t *testing.T) {
	b := sparse.NewBuilder(2, 2)
	b.Add(0, 0, 1)
	b.Add(1, 1, -1)
	if _, err := NewJacobi(b.Build(), 0, 2); err == nil {
		t.Fatal("negative diagonal must be rejected")
	}
}

func TestBlockJacobiBlockLayout(t *testing.T) {
	a := matgen.Poisson2D(5, 5) // 25 rows
	p, err := NewBlockJacobi(a, 0, 25, 10)
	if err != nil {
		t.Fatal(err)
	}
	// 25 rows, max block 10 → 3 uniform blocks of sizes 9,8,8.
	if p.bc.NumBlocks() != 3 {
		t.Fatalf("NumBlocks = %d, want 3", p.bc.NumBlocks())
	}
	sizes := []int{p.offsets[1] - p.offsets[0], p.offsets[2] - p.offsets[1], p.offsets[3] - p.offsets[2]}
	if sizes[0] != 9 || sizes[1] != 8 || sizes[2] != 8 {
		t.Fatalf("block sizes %v, want [9 8 8]", sizes)
	}
}

func TestBlockJacobiApplySolveInverse(t *testing.T) {
	a := matgen.EmiliaLike(3, 3, 3, 1)
	lo, hi := 9, 21
	p, err := NewBlockJacobi(a, lo, hi, 5)
	if err != nil {
		t.Fatal(err)
	}
	n := hi - lo
	r := make([]float64, n)
	for i := range r {
		r[i] = float64(i) - 3.5
	}
	z := make([]float64, n)
	p.Apply(z, r)
	back := make([]float64, n)
	p.SolveRestricted(back, z)
	for i := range back {
		if math.Abs(back[i]-r[i]) > 1e-10*(1+math.Abs(r[i])) {
			t.Fatalf("SolveRestricted(Apply(r)) ≠ r at %d: %g vs %g", i, back[i], r[i])
		}
	}
	if p.ApplyFlops() <= 0 {
		t.Fatal("block Jacobi must report positive flops")
	}
	if p.CouplesAcrossNodes() {
		t.Fatal("block Jacobi is node-local")
	}
}

func TestBlockJacobiMatchesExactBlockSolve(t *testing.T) {
	// For a block size covering the whole local range, Apply must equal a
	// direct solve with the diagonal block.
	a := matgen.Poisson2D(2, 3) // 6 rows
	p, err := NewBlockJacobi(a, 0, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	if p.bc.NumBlocks() != 1 {
		t.Fatalf("want a single block, got %d", p.bc.NumBlocks())
	}
	r := []float64{1, 0, 0, 0, 0, 0}
	z := make([]float64, 6)
	p.Apply(z, r)
	// Verify A·z = r on the block.
	az := make([]float64, 6)
	a.MulVec(az, z)
	for i := range az {
		if math.Abs(az[i]-r[i]) > 1e-12 {
			t.Fatalf("A·z ≠ r at %d: %g", i, az[i])
		}
	}
}

// TestBlockJacobiApplyMatchesPerBlockSolve: the batched sweep — groups of
// four through the AVX routine and through the generated Go solve, pairs, a
// single — equals one dense.Cholesky solve per block bit for bit, on local
// ranges whose block sequences mix 10s and 9s (and 8s) and leave 0…3 blocks
// after the last group of four, in place and out of place. Every other range
// carries NaN, ±Inf or −0 in one row, so one lane of a group.
func TestBlockJacobiApplyMatchesPerBlockSolve(t *testing.T) {
	a := matgen.EmiliaLike(6, 6, 6, 3) // 216 rows
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	paths := []bool{false}
	if cpu.AVX {
		paths = append(paths, true)
	}
	defer func(v bool) { cpu.AVX = v }(cpu.AVX)
	for _, vector := range paths {
		cpu.AVX = vector
		leftovers := map[int]bool{}
		for n := 72; n <= 130; n++ {
			lo, hi := 40, 40+n
			p, err := NewBlockJacobi(a, lo, hi, 10)
			if err != nil {
				t.Fatal(err)
			}
			leftovers[p.bc.NumBlocks()%4] = true
			r := make([]float64, n)
			for i := range r {
				r[i] = float64((i*7)%13) - 6.25
			}
			if n%2 == 0 {
				r[n%7*9+n%9] = special[n/2%len(special)]
			}
			want := make([]float64, n)
			for b := 0; b < p.bc.NumBlocks(); b++ {
				b0, b1 := p.offsets[b], p.offsets[b+1]
				blk := dense.New(b1 - b0)
				for i := b0; i < b1; i++ {
					for j := b0; j < b1; j++ {
						blk.Set(i-b0, j-b0, a.At(lo+i, lo+j))
					}
				}
				ch, err := dense.Factor(blk)
				if err != nil {
					t.Fatal(err)
				}
				copy(want[b0:b1], r[b0:b1])
				ch.Solve(want[b0:b1])
			}
			z := make([]float64, n)
			p.Apply(z, r)
			inPlace := append([]float64(nil), r...)
			p.Apply(inPlace, inPlace)
			for i := range want {
				if math.Float64bits(z[i]) != math.Float64bits(want[i]) || math.Float64bits(inPlace[i]) != math.Float64bits(want[i]) {
					t.Fatalf("vector %v, %d rows, %d blocks, row %d: Apply %x, in place %x, per-block solve %x", vector, n, p.bc.NumBlocks(), i,
						math.Float64bits(z[i]), math.Float64bits(inPlace[i]), math.Float64bits(want[i]))
				}
			}
		}
		if len(leftovers) != 4 {
			t.Fatalf("block counts mod 4 seen: %v, want all of 0…3", leftovers)
		}
	}
}

func TestBlockJacobiEmptyRange(t *testing.T) {
	a := matgen.Poisson2D(2, 2)
	p, err := NewBlockJacobi(a, 2, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	p.Apply(nil, nil) // must not panic
	if p.bc.NumBlocks() != 0 {
		t.Fatalf("empty range NumBlocks = %d", p.bc.NumBlocks())
	}
}

func TestBlockJacobiRejectsBadBlockAndSPD(t *testing.T) {
	a := matgen.Poisson2D(2, 2)
	if _, err := NewBlockJacobi(a, 0, 4, 0); err == nil {
		t.Fatal("maxBlock 0 must be rejected")
	}
	b := sparse.NewBuilder(2, 2)
	b.Add(0, 0, 1)
	b.Add(1, 1, -2)
	if _, err := NewBlockJacobi(b.Build(), 0, 2, 2); err == nil {
		t.Fatal("indefinite block must be rejected")
	}
}

func TestBuildFactory(t *testing.T) {
	a := matgen.Poisson2D(3, 3)
	for k, want := range map[Kind]string{None: "precond.Identity", Jacobi: "*precond.PointJacobi", BlockJacobi: "*precond.BlockJacobiPC"} {
		p, err := Build(k, a, 0, 9, 10)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if got := fmt.Sprintf("%T", p); got != want {
			t.Fatalf("Build(%v) built a %s, want %s", k, got, want)
		}
	}
	if _, err := Build(Kind(99), a, 0, 9, 10); err == nil {
		t.Fatal("unknown kind must error")
	}
}

// Property: for random banded SPD matrices and random local ranges,
// SolveRestricted is the exact inverse of Apply.
func TestApplySolveInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		n := 20 + int(seed%13+13)%13
		a := matgen.BandedSPD(n, 3, seed)
		lo := int(seed%5+5) % 5
		hi := n - lo
		for _, k := range []Kind{Jacobi, BlockJacobi} {
			p, err := Build(k, a, lo, hi, 4)
			if err != nil {
				return false
			}
			m := hi - lo
			r := make([]float64, m)
			for i := range r {
				r[i] = math.Sin(float64(i) + float64(seed))
			}
			z := make([]float64, m)
			back := make([]float64, m)
			p.Apply(z, r)
			p.SolveRestricted(back, z)
			for i := range back {
				if math.Abs(back[i]-r[i]) > 1e-8*(1+math.Abs(r[i])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
