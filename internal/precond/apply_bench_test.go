package precond

import (
	"fmt"
	"testing"

	"esrp/internal/matgen"
	"esrp/internal/sparse"
)

// BenchmarkBlockJacobiApply measures the batched backsolve sweep (blocks ≤ 10)
// on one rank's rows of the Emilia analog at two sizes: 256 rows, where the
// factor arena sits in L1, and the 3 456 rows per rank of the benchmark's
// solve-fat workload, where it streams from L2.
func BenchmarkBlockJacobiApply(b *testing.B) {
	for _, c := range []struct {
		a      *sparse.CSR
		lo, hi int
	}{
		{matgen.EmiliaLike(16, 16, 16, 923), 1024, 1280},
		{matgen.EmiliaLike(24, 24, 24, 923), 3456, 6912},
	} {
		p, err := NewBlockJacobi(c.a, c.lo, c.hi, 10)
		if err != nil {
			b.Fatal(err)
		}
		r := make([]float64, c.hi-c.lo)
		z := make([]float64, c.hi-c.lo)
		for i := range r {
			r[i] = float64(i%13) - 6
		}
		b.Run(fmt.Sprintf("rows=%d", c.hi-c.lo), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.Apply(z, r)
			}
		})
	}
}
