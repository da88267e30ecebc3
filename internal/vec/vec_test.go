package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDot(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, -5, 6}
	if got := Dot(x, y); got != 1*4-2*5+3*6 {
		t.Fatalf("Dot = %g, want 12", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %g, want 0", got)
	}
}

func TestAxpy(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{10, 20, 30}
	Axpy(2, x, y)
	want := []float64{12, 24, 36}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Axpy: y[%d] = %g, want %g", i, y[i], want[i])
		}
	}
}

func TestXpayInto(t *testing.T) {
	x := []float64{1, 2}
	y := []float64{10, 20}
	dst := make([]float64, 2)
	XpayInto(dst, x, 3, y)
	if dst[0] != 31 || dst[1] != 62 {
		t.Fatalf("XpayInto: got %v, want [31 62]", dst)
	}
	// Aliasing dst with y (the p-update pattern in PCG).
	XpayInto(y, x, 3, y)
	if y[0] != 31 || y[1] != 62 {
		t.Fatalf("XpayInto aliased: got %v, want [31 62]", y)
	}
}

func TestZero(t *testing.T) {
	x := []float64{1, 2, 3}
	Zero(x)
	if x[0] != 0 || x[1] != 0 || x[2] != 0 {
		t.Fatalf("Zero: got %v", x)
	}
}

func TestNorms(t *testing.T) {
	x := []float64{3, -4}
	if got := Norm2(x); !almostEq(got, 5, 1e-15) {
		t.Fatalf("Norm2 = %g, want 5", got)
	}
	if got := NormInf(x); got != 4 {
		t.Fatalf("NormInf = %g, want 4", got)
	}
	if got := NormInf(nil); got != 0 {
		t.Fatalf("NormInf(nil) = %g, want 0", got)
	}
}

func TestSubMaxAbsDiff(t *testing.T) {
	x := []float64{5, 7}
	y := []float64{1, 2}
	d := make([]float64, 2)
	Sub(d, x, y)
	if d[0] != 4 || d[1] != 5 {
		t.Fatalf("Sub: got %v", d)
	}
	if got := MaxAbsDiff(x, y); got != 5 {
		t.Fatalf("MaxAbsDiff = %g, want 5", got)
	}
}

// Property: Dot is symmetric and bilinear against Axpy.
func TestDotPropertySymmetry(t *testing.T) {
	f := func(xs []float64) bool {
		for i, v := range xs {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				xs[i] = 1
			}
		}
		ys := make([]float64, len(xs))
		for i := range ys {
			ys[i] = float64(i%7) - 3
		}
		return almostEq(Dot(xs, ys), Dot(ys, xs), 1e-9*(1+math.Abs(Dot(xs, ys))))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ‖x‖² = x·x ≥ 0 and Norm2 is absolutely homogeneous.
func TestNormProperties(t *testing.T) {
	f := func(xs []float64) bool {
		for i, v := range xs {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				xs[i] = 1
			}
		}
		n := Norm2(xs)
		if n < 0 {
			return false
		}
		scaled := make([]float64, len(xs))
		for i, v := range xs {
			scaled[i] = -2 * v
		}
		return almostEq(Norm2(scaled), 2*n, 1e-9*(1+2*n))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// referenceDot is the naive single-statement loop the unrolled kernels must
// reproduce bit for bit.
func referenceDot(x, y []float64) float64 {
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// TestFusedKernelsBitwiseIdentical pins the fused/unrolled kernels (Dot,
// Dot2, Axpy, AxpyPair) to the naive loops with exact == comparisons
// across awkward lengths (remainder handling) and adversarial values where
// a reordered summation would differ in the last ulp.
func TestFusedKernelsBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 100, 1023} {
		x := make([]float64, n)
		y := make([]float64, n)
		z := make([]float64, n)
		for i := 0; i < n; i++ {
			// Mixed magnitudes make float addition order-sensitive.
			x[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(16)-8))
			y[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(16)-8))
			z[i] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(16)-8))
		}
		if got, want := Dot(x, y), referenceDot(x, y); got != want {
			t.Fatalf("n=%d: Dot %v != naive %v", n, got, want)
		}
		xy, xx := Dot2(x, y)
		if xy != referenceDot(x, y) || xx != referenceDot(x, x) {
			t.Fatalf("n=%d: Dot2 (%v,%v) != naive (%v,%v)", n, xy, xx, referenceDot(x, y), referenceDot(x, x))
		}

		a, b := 0.7381, -1.2941
		y1 := append([]float64(nil), y...)
		y2 := append([]float64(nil), y...)
		Axpy(a, x, y1)
		for i := range y2 {
			y2[i] += a * x[i]
		}
		for i := range y1 {
			if y1[i] != y2[i] {
				t.Fatalf("n=%d: Axpy[%d] %v != naive %v", n, i, y1[i], y2[i])
			}
		}

		p1 := append([]float64(nil), y...)
		v1 := append([]float64(nil), z...)
		p2 := append([]float64(nil), y...)
		v2 := append([]float64(nil), z...)
		AxpyPair(a, x, p1, b, x, v1)
		Axpy(a, x, p2)
		Axpy(b, x, v2)
		for i := range p1 {
			if p1[i] != p2[i] || v1[i] != v2[i] {
				t.Fatalf("n=%d: AxpyPair[%d] (%v,%v) != (%v,%v)", n, i, p1[i], v1[i], p2[i], v2[i])
			}
		}
	}
}
