package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func buildSmall(t *testing.T) *CSR {
	t.Helper()
	// [ 2 -1  0 ]
	// [-1  2 -1 ]
	// [ 0 -1  2 ]
	b := NewBuilder(3, 3)
	for i := 0; i < 3; i++ {
		b.Add(i, i, 2)
	}
	b.AddSym(0, 1, -1)
	b.AddSym(1, 2, -1)
	a := b.Build()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	return a
}

func randomCSR(rng *rand.Rand, rows, cols int, density float64) *CSR {
	b := NewBuilder(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				b.Add(i, j, rng.NormFloat64())
			}
		}
	}
	return b.Build()
}

func TestBuilderMergesDuplicates(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 0, 1)
	b.Add(0, 0, 2)
	b.Add(1, 1, 5)
	a := b.Build()
	if a.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2 (duplicates merged)", a.NNZ())
	}
	if a.At(0, 0) != 3 {
		t.Fatalf("At(0,0) = %g, want 3 (summed)", a.At(0, 0))
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add out of range must panic")
		}
	}()
	NewBuilder(2, 2).Add(2, 0, 1)
}

func TestAtAndRow(t *testing.T) {
	a := buildSmall(t)
	if a.At(1, 0) != -1 || a.At(1, 1) != 2 || a.At(0, 2) != 0 {
		t.Fatal("At returned wrong values")
	}
	cols, vals := a.Row(1)
	if len(cols) != 3 || cols[0] != 0 || vals[1] != 2 {
		t.Fatalf("Row(1): cols=%v vals=%v", cols, vals)
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomCSR(rng, 17, 13, 0.3)
	d := a.Dense()
	x := make([]float64, 13)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := make([]float64, 17)
	a.MulVec(got, x)
	for i := 0; i < 17; i++ {
		var want float64
		for j := 0; j < 13; j++ {
			want += d[i*13+j] * x[j]
		}
		if math.Abs(got[i]-want) > 1e-12*(1+math.Abs(want)) {
			t.Fatalf("MulVec[%d] = %g, want %g", i, got[i], want)
		}
	}
}

func TestMulVecRows(t *testing.T) {
	a := buildSmall(t)
	x := []float64{1, 2, 3}
	full := make([]float64, 3)
	a.MulVec(full, x)
	part := make([]float64, 2)
	a.MulVecRows(part, x, 1, 3)
	if part[0] != full[1] || part[1] != full[2] {
		t.Fatalf("MulVecRows: got %v, want %v", part, full[1:])
	}
}

func TestIsSymmetric(t *testing.T) {
	a := buildSmall(t)
	if !a.IsSymmetric(0) {
		t.Fatal("tridiagonal Laplacian must be symmetric")
	}
	b := NewBuilder(2, 2)
	b.Add(0, 1, 1)
	b.Add(0, 0, 1)
	b.Add(1, 1, 1)
	if b.Build().IsSymmetric(0) {
		t.Fatal("asymmetric pattern reported symmetric")
	}
}

func TestBandwidth(t *testing.T) {
	a := buildSmall(t)
	if bw := a.Bandwidth(); bw != 1 {
		t.Fatalf("Bandwidth = %d, want 1", bw)
	}
	if bw := Identity(5).Bandwidth(); bw != 0 {
		t.Fatalf("Identity bandwidth = %d, want 0", bw)
	}
}

func TestSubRange(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randomCSR(rng, 12, 12, 0.4)
	s := a.SubRange(3, 9, 3, 9)
	if s.Rows != 6 || s.Cols != 6 {
		t.Fatalf("SubRange dims %dx%d, want 6x6", s.Rows, s.Cols)
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			if s.At(i, j) != a.At(i+3, j+3) {
				t.Fatalf("SubRange(%d,%d) = %g, want %g", i, j, s.At(i, j), a.At(i+3, j+3))
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	a := buildSmall(t)
	a.ColIdx[0] = 99
	if err := a.Validate(); err == nil {
		t.Fatal("Validate must reject out-of-range column")
	}
}

func TestFromDense(t *testing.T) {
	d := []float64{1, 0, 0, 2}
	a := FromDense(2, 2, d, 0)
	if a.NNZ() != 2 || a.At(0, 0) != 1 || a.At(1, 1) != 2 {
		t.Fatalf("FromDense: %v", a)
	}
}

func TestIdentity(t *testing.T) {
	a := Identity(4)
	x := []float64{1, 2, 3, 4}
	y := make([]float64, 4)
	a.MulVec(y, x)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("Identity·x ≠ x at %d", i)
		}
	}
}

// Property: Build→Dense→FromDense round-trips for random matrices.
func TestCSRDenseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(15), 1+rng.Intn(15)
		a := randomCSR(rng, rows, cols, 0.3)
		b := FromDense(rows, cols, a.Dense(), 0)
		if a.NNZ() != b.NNZ() {
			return false
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if a.At(i, j) != b.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: SubRange(0,n,0,n) is the identity transformation.
func TestSubRangeFullIsIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a := randomCSR(rng, n, n, 0.4)
		s := a.SubRange(0, n, 0, n)
		if s.NNZ() != a.NNZ() {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if s.At(i, j) != a.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
