package dense

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomSPD(n int, rng *rand.Rand) *Matrix {
	// A = Bᵀ B + n·I is SPD for any B.
	b := make([]float64, n*n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	a := New(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += b[k*n+i] * b[k*n+j]
			}
			if i == j {
				s += float64(n)
			}
			a.Set(i, j, s)
		}
	}
	return a
}

func TestFromRowsAtSet(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("FromRows: wrong entries: %v", m.Data)
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Fatalf("Set: got %g, want 9", m.At(0, 0))
	}
}

func TestMulVec(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	dst := make([]float64, 2)
	m.MulVec(dst, []float64{1, 1})
	if dst[0] != 3 || dst[1] != 7 {
		t.Fatalf("MulVec: got %v, want [3 7]", dst)
	}
}

func TestCholeskySolveKnown(t *testing.T) {
	// A = [[4,2],[2,3]], b = [10, 7] → x = [2, 1].
	a := FromRows([][]float64{{4, 2}, {2, 3}})
	ch, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{10, 7}
	ch.Solve(x)
	if math.Abs(x[0]-2) > 1e-14 || math.Abs(x[1]-1) > 1e-14 {
		t.Fatalf("Solve: got %v, want [2 1]", x)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Factor(a); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("Factor of indefinite matrix: err = %v, want ErrNotSPD", err)
	}
}

func TestCholeskyRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 5, 10, 17} {
		a := randomSPD(n, rng)
		ch, err := Factor(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		xstar := make([]float64, n)
		for i := range xstar {
			xstar[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		a.MulVec(b, xstar)
		ch.Solve(b)
		for i := range b {
			if math.Abs(b[i]-xstar[i]) > 1e-9*(1+math.Abs(xstar[i])) {
				t.Fatalf("n=%d: x[%d] = %g, want %g", n, i, b[i], xstar[i])
			}
		}
	}
}

func TestCholeskyMulVecReconstitutesOperator(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomSPD(8, rng)
	ch, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 8)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, 8)
	a.MulVec(want, x)
	got := make([]float64, 8)
	ch.MulVec(got, x)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("MulVec[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestCholeskySolveInto(t *testing.T) {
	a := FromRows([][]float64{{4, 0}, {0, 9}})
	ch, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	src := []float64{8, 27}
	dst := make([]float64, 2)
	ch.SolveInto(dst, src)
	if dst[0] != 2 || dst[1] != 3 {
		t.Fatalf("SolveInto: got %v, want [2 3]", dst)
	}
	if src[0] != 8 || src[1] != 27 {
		t.Fatalf("SolveInto must not modify src, got %v", src)
	}
}

func TestCholeskyDet(t *testing.T) {
	a := FromRows([][]float64{{4, 0}, {0, 9}})
	ch, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if d := ch.Det(); math.Abs(d-36) > 1e-12 {
		t.Fatalf("Det = %g, want 36", d)
	}
}

// Property: for random SPD matrices, Solve then MulVec round-trips.
func TestCholeskyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		a := randomSPD(n, r)
		ch, err := Factor(a)
		if err != nil {
			return false
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x := append([]float64(nil), b...)
		ch.Solve(x)
		ax := make([]float64, n)
		a.MulVec(ax, x)
		for i := range ax {
			if math.Abs(ax[i]-b[i]) > 1e-8*(1+math.Abs(b[i])) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
