package dense

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"

	"esrp/internal/cpu"
)

// quadPaths runs f once per way SolveAll can solve a group on this platform:
// through the AVX routine where there is one, and through the generated Go
// solve — what every other platform runs.
func quadPaths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	defer func(v bool) { cpu.AVX = v }(cpu.AVX)
	if cpu.AVX {
		t.Run("vector", f)
	}
	cpu.AVX = false
	t.Run("portable", f)
}

// factorAll lays out a BlockCholesky for blocks and factors each into it.
func factorAll(t *testing.T, blocks []*Matrix) *BlockCholesky {
	t.Helper()
	dims := make([]int, len(blocks))
	for b, a := range blocks {
		dims[b] = a.N
	}
	bc := NewBlockCholesky(dims)
	for b, a := range blocks {
		if err := bc.Factor(b, a); err != nil {
			t.Fatal(err)
		}
	}
	return bc
}

// lowerAt is L[i][k] of block b, read from wherever the layout put it.
func (bc *BlockCholesky) lowerAt(b, i, k int) float64 {
	s := bc.slots[b]
	return bc.l[s.off+(i*(i+1)/2+k)*s.step]
}

// special are the values a lane may carry that arithmetic does not round
// away: NaN and ±Inf propagate, −0 keeps its sign through products and
// quotients.
var special = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}

// sameBits fails t unless got and want are equal bit for bit.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s, entry %d: %x, per-block %x", what, i,
				math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestBlockCholeskyMatchesPerBlock pins the flat packed-triangle arena to
// the per-block Cholesky path bit for bit: same factors, same Solve, same
// MulVec, same SolveAll, across a spread of block sizes including 1×1, blocks
// packed alone and blocks in the two group sizes, interleaved by lane.
func TestBlockCholeskyMatchesPerBlock(t *testing.T) {
	quadPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		var blocks []*Matrix
		var refs []*Cholesky
		sizes := []int{1, 2, 3, 7, 10, 10, 10, 10, 4, 9, 9, 9, 9, 9}
		for _, n := range sizes {
			a := randomSPD(n, rng)
			ch, err := Factor(a)
			if err != nil {
				t.Fatal(err)
			}
			blocks = append(blocks, a)
			refs = append(refs, ch)
		}
		bc := factorAll(t, blocks)
		if bc.NumBlocks() != len(sizes) {
			t.Fatalf("NumBlocks = %d, want %d", bc.NumBlocks(), len(sizes))
		}
		if got := bc.slots[4].step + bc.slots[10].step; got != 2*lanes {
			t.Fatalf("the four 10s and the first four 9s are not groups: steps %d, %d", bc.slots[4].step, bc.slots[10].step)
		}
		var all, wantAll []float64
		for b, n := range sizes {
			if bc.slots[b].n != n {
				t.Fatalf("block %d has %d rows, want %d", b, bc.slots[b].n, n)
			}
			for i := 0; i < n; i++ {
				for k := 0; k <= i; k++ {
					if got, want := bc.lowerAt(b, i, k), refs[b].L[i*n+k]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("block %d L[%d][%d] = %x, per-block %x", b, i, k, math.Float64bits(got), math.Float64bits(want))
					}
				}
			}
			v := make([]float64, n)
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			all = append(all, v...)
			want := slices.Clone(v)
			refs[b].Solve(want)
			wantAll = append(wantAll, want...)
			got := slices.Clone(v)
			bc.Solve(b, got)
			sameBits(t, fmt.Sprintf("block %d Solve", b), got, want)
			wantM := make([]float64, n)
			refs[b].MulVec(wantM, v)
			gotM := make([]float64, n)
			bc.MulVec(b, gotM, v)
			sameBits(t, fmt.Sprintf("block %d MulVec", b), gotM, wantM)
		}
		bc.SolveAll(all)
		sameBits(t, "SolveAll", all, wantAll)
	})
}

// TestBlockCholeskySolvePairBitwise: the interleaved pair sweep must equal
// two independent Solve calls bit for bit, including mixed block sizes and
// blocks that sit in a group's lanes.
func TestBlockCholeskySolvePairBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var blocks []*Matrix
	sizes := []int{10, 9, 9, 9, 9, 9, 1, 5, 2}
	for _, n := range sizes {
		blocks = append(blocks, randomSPD(n, rng))
	}
	bc := factorAll(t, blocks)
	if bc.slots[2].step != lanes {
		t.Fatal("blocks 2…5 are not a group")
	}
	for b0 := 0; b0 < len(sizes); b0++ {
		for b1 := 0; b1 < len(sizes); b1++ {
			if b0 == b1 {
				continue
			}
			v0 := make([]float64, sizes[b0])
			v1 := make([]float64, sizes[b1])
			for i := range v0 {
				v0[i] = rng.NormFloat64()
			}
			for i := range v1 {
				v1[i] = rng.NormFloat64()
			}
			w0 := slices.Clone(v0)
			w1 := slices.Clone(v1)
			bc.Solve(b0, w0)
			bc.Solve(b1, w1)
			bc.SolvePair(b0, b1, v0, v1)
			sameBits(t, fmt.Sprintf("pair (%d,%d) block0", b0, b1), v0, w0)
			sameBits(t, fmt.Sprintf("pair (%d,%d) block1", b0, b1), v1, w1)
		}
	}
}

// TestBlockCholeskyRejectsIndefinite mirrors Factor's SPD check, and a
// matrix of another size than the block's is refused; the other blocks
// still factor and solve.
func TestBlockCholeskyRejectsIndefinite(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bc := NewBlockCholesky([]int{3, 4})
	bad := New(3)
	bad.Set(0, 0, -1)
	if err := bc.Factor(0, bad); err == nil {
		t.Fatal("Factor accepted an indefinite block")
	}
	if err := bc.Factor(1, randomSPD(3, rng)); err == nil {
		t.Fatal("Factor accepted a 3×3 matrix for a 4-row block")
	}
	a := randomSPD(4, rng)
	if err := bc.Factor(1, a); err != nil {
		t.Fatal(err)
	}
	ch, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	v := []float64{1, 2, 3, 4}
	want := slices.Clone(v)
	ch.Solve(want)
	bc.Solve(1, v)
	sameBits(t, "the surviving block", v, want)
}

// mulVecWithTemp is MulVec as it was before it went in place: t = Lᵀ x in
// a temporary, then dst = L t top row first. Kept as the bitwise reference.
func mulVecWithTemp(bc *BlockCholesky, b int, dst, x []float64) {
	n := bc.slots[b].n
	t := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		for k := i; k < n; k++ {
			s += bc.lowerAt(b, k, i) * x[k]
		}
		t[i] = s
	}
	for i := 0; i < n; i++ {
		var s float64
		for k := 0; k <= i; k++ {
			s += bc.lowerAt(b, i, k) * t[k]
		}
		dst[i] = s
	}
}

// TestBlockCholeskyMulVecInPlace: the temporary-free MulVec equals the
// two-buffer reference bit for bit on random SPD blocks of sizes 1–40 and on
// two groups, and allocates nothing.
func TestBlockCholeskyMulVecInPlace(t *testing.T) {
	quadPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(15))
		var blocks []*Matrix
		for n := 1; n <= 40; n++ {
			blocks = append(blocks, randomSPD(n, rng))
		}
		for _, n := range []int{9, 9, 9, 9, 10, 10, 10, 10} {
			blocks = append(blocks, randomSPD(n, rng))
		}
		bc := factorAll(t, blocks)
		if bc.slots[40].step != lanes || bc.slots[44].step != lanes {
			t.Fatal("the last eight blocks are not two groups")
		}
		x := make([]float64, 40)
		got := make([]float64, 40)
		want := make([]float64, 40)
		for b := 0; b < bc.NumBlocks(); b++ {
			n := bc.slots[b].n
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			for i := range got {
				got[i] = math.NaN() // dst's old contents must not matter
			}
			bc.MulVec(b, got[:n], x[:n])
			mulVecWithTemp(bc, b, want[:n], x[:n])
			sameBits(t, fmt.Sprintf("block of size %d", n), got[:n], want[:n])
		}
		if a := testing.AllocsPerRun(20, func() {
			for b := 0; b < bc.NumBlocks(); b++ {
				bc.MulVec(b, got[:bc.slots[b].n], x[:bc.slots[b].n])
			}
		}); a != 0 {
			t.Fatalf("MulVec allocates %v times per sweep, want 0", a)
		}
	})
}

// TestBlockCholeskySolveQuadBitwise: the batched sweep must equal one
// per-block Cholesky.Solve per block bit for bit — through the group solves
// (dims 9 and 10), through SolvePair and Solve (every other dim, groups of
// mixed size, the 0…3 blocks left after the last four) — on uniform
// sequences of every dim 1…12 and on sequences that change between 10 and 9
// the way block Jacobi's do. Every third sequence carries NaN, ±Inf or −0 in
// the entries of one block, so one lane of a group, and nothing may leak into
// the other lanes.
func TestBlockCholeskySolveQuadBitwise(t *testing.T) {
	quadPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		var seqs [][]int
		for n := 1; n <= 12; n++ {
			for count := 4; count <= 11; count++ {
				seqs = append(seqs, slices.Repeat([]int{n}, count))
			}
		}
		for tens := 0; tens <= 9; tens++ {
			for nines := 0; nines <= 9; nines++ {
				seqs = append(seqs, append(slices.Repeat([]int{10}, tens), slices.Repeat([]int{9}, nines)...))
			}
		}
		for si, sizes := range seqs {
			var blocks []*Matrix
			var v, want []float64
			odd := -1 // the block that carries special values
			if si%3 == 0 && len(sizes) > 0 {
				odd = rng.Intn(len(sizes))
			}
			for b, n := range sizes {
				a := randomSPD(n, rng)
				ch, err := Factor(a)
				if err != nil {
					t.Fatal(err)
				}
				blocks = append(blocks, a)
				vb := make([]float64, n)
				for i := range vb {
					vb[i] = rng.NormFloat64()
				}
				if b == odd {
					vb[rng.Intn(n)] = special[si/3%len(special)]
				}
				v = append(v, vb...)
				ch.Solve(vb)
				want = append(want, vb...)
			}
			bc := factorAll(t, blocks)
			bc.SolveAll(v)
			sameBits(t, fmt.Sprintf("sizes %v", sizes), v, want)
		}
	})
}

// TestSolveAllRoutesOnRankShapes pins which blocks SolveAll sends where on
// the seven rank sizes of the benchmark workloads (3 456 rows per rank on
// solve-fat, 375 on recovery-storm, 64 on solve-wide, the rest the sweeps'
// and the recovery set-ups'), cut at MaxBlock 10 the way NewBlockJacobi cuts
// them: as few blocks as possible, the larger ones first. Every group takes
// the AVX routine where cpu.AVX holds and the Go solve where not; pairs and
// singles are the same on both.
func TestSolveAllRoutesOnRankShapes(t *testing.T) {
	for _, c := range []struct {
		rows               int
		grouped, pair, one int // blocks per route
	}{
		{3456, 344, 2, 0},
		{375, 36, 2, 0},
		{288, 24, 4, 1},
		{216, 20, 2, 0},
		{144, 12, 2, 1},
		{108, 8, 2, 1},
		{64, 4, 2, 1},
	} {
		nb := (c.rows + 9) / 10
		dims := make([]int, nb)
		for b := range dims {
			dims[b] = c.rows / nb
			if b < c.rows%nb {
				dims[b]++
			}
		}
		bc := NewBlockCholesky(dims)
		for _, vector := range []bool{false, true} {
			if vector && !cpu.AVX {
				continue
			}
			func() {
				defer func(v bool) { cpu.AVX = v }(cpu.AVX)
				cpu.AVX = vector
				group := routeQuad
				if vector {
					group = routeLanes
				}
				count := map[route]int{}
				for b := 0; b < nb; {
					r := bc.route(b)
					k := [...]int{routeOne: 1, routePair: 2, routeQuad: lanes, routeLanes: lanes}[r]
					if r != routeOne && r != routePair && r != group {
						t.Fatalf("%d rows, vector %v: block %d takes route %d", c.rows, vector, b, r)
					}
					count[r] += k
					b += k
				}
				if count[group] != c.grouped || count[routePair] != c.pair || count[routeOne] != c.one {
					t.Fatalf("%d rows (%d blocks), vector %v: %d grouped, %d in pairs, %d alone; want %d, %d, %d",
						c.rows, nb, vector, count[group], count[routePair], count[routeOne], c.grouped, c.pair, c.one)
				}
			}()
		}
	}
}

// TestBlockCholeskyArenaSize: the arena holds each factor once, Σ n(n+1)/2
// floats, grouped or not.
func TestBlockCholeskyArenaSize(t *testing.T) {
	dims := []int{10, 9, 9, 9, 9, 9, 10, 10, 10, 10, 3, 1}
	want := 0
	for _, n := range dims {
		want += n * (n + 1) / 2
	}
	if got := len(NewBlockCholesky(dims).l); got != want {
		t.Fatalf("arena of %d floats, want %d", got, want)
	}
}

// The committed solvequad_gen.go and solvequad_amd64.s are what
// gen_solvequad.go writes (go generate ./internal/dense rewrites them).
func TestGeneratedSolveIsCurrent(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool to run the generator with")
	}
	dir := t.TempDir()
	cmd := exec.Command("go", "run", "gen_solvequad.go", "-dir", dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go run gen_solvequad.go -dir %s: %v\n%s", dir, err, out)
	}
	for _, name := range []string{"solvequad_gen.go", "solvequad_amd64.s"} {
		want, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from what gen_solvequad.go writes (run go generate ./internal/dense)", name)
		}
	}
}
