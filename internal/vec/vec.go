// Package vec provides the serial dense-vector kernels that every simulated
// node applies to its local block of a distributed vector.
//
// All functions operate on raw []float64 slices. They are deliberately free
// of bounds-checking conveniences: callers pass equally sized slices, and the
// functions panic (via the runtime) on mismatched lengths, which in this code
// base always indicates a partitioning bug rather than a recoverable error.
package vec

import "math"

// Dot returns the inner product x·y of two equally long vectors. The loop
// is 4-way unrolled with a single accumulator updated in index order, so the
// summation order — and therefore the floating-point result — is bitwise
// identical to the naive loop.
func Dot(x, y []float64) float64 {
	var s float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		y4 := y[i : i+4 : i+4]
		x4 := x[i : i+4 : i+4]
		s += x4[0] * y4[0]
		s += x4[1] * y4[1]
		s += x4[2] * y4[2]
		s += x4[3] * y4[3]
	}
	for ; i < len(x); i++ {
		s += x[i] * y[i]
	}
	return s
}

// Dot2 returns x·y and x·x in one sweep — the fused form of the solver's
// per-iteration (r·z, r·r) pair. Each accumulator is updated in index order,
// so both sums are bitwise identical to two separate Dot calls.
func Dot2(x, y []float64) (xy, xx float64) {
	i := 0
	for ; i+4 <= len(x); i += 4 {
		x4 := x[i : i+4 : i+4]
		y4 := y[i : i+4 : i+4]
		xy += x4[0] * y4[0]
		xx += x4[0] * x4[0]
		xy += x4[1] * y4[1]
		xx += x4[1] * x4[1]
		xy += x4[2] * y4[2]
		xx += x4[2] * x4[2]
		xy += x4[3] * y4[3]
		xx += x4[3] * x4[3]
	}
	for ; i < len(x); i++ {
		xy += x[i] * y[i]
		xx += x[i] * x[i]
	}
	return xy, xx
}

// Axpy computes y += a*x in place (4-way unrolled; elementwise, so the
// result is bitwise identical to the naive loop).
func Axpy(a float64, x, y []float64) {
	i := 0
	for ; i+4 <= len(x); i += 4 {
		x4 := x[i : i+4 : i+4]
		y4 := y[i : i+4 : i+4]
		y4[0] += a * x4[0]
		y4[1] += a * x4[1]
		y4[2] += a * x4[2]
		y4[3] += a * x4[3]
	}
	for ; i < len(x); i++ {
		y[i] += a * x[i]
	}
}

// AxpyPair computes y += a*x and v += b*u in one sweep — the solver's fused
// iterand/residual update (x += α·p, r −= α·q). All four slices must have
// equal length; the updates are elementwise, so results are bitwise
// identical to two Axpy calls.
func AxpyPair(a float64, x, y []float64, b float64, u, v []float64) {
	for i := range x {
		y[i] += a * x[i]
		v[i] += b * u[i]
	}
}

// XpayInto computes dst = x + a*y. dst may alias x or y.
func XpayInto(dst, x []float64, a float64, y []float64) {
	for i := range dst {
		dst[i] = x[i] + a*y[i]
	}
}

// Zero sets all entries of x to zero.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	return math.Sqrt(Dot(x, x))
}

// NormInf returns the maximum absolute entry of x (0 for empty x).
func NormInf(x []float64) float64 {
	var m float64
	for _, xi := range x {
		if a := math.Abs(xi); a > m {
			m = a
		}
	}
	return m
}

// Sub computes dst = x - y.
func Sub(dst, x, y []float64) {
	for i := range dst {
		dst[i] = x[i] - y[i]
	}
}

// MaxAbsDiff returns max_i |x[i]-y[i]|, a convenient trajectory-comparison
// metric for reconstruction-exactness tests.
func MaxAbsDiff(x, y []float64) float64 {
	var m float64
	for i := range x {
		if d := math.Abs(x[i] - y[i]); d > m {
			m = d
		}
	}
	return m
}
