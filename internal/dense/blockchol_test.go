package dense

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"slices"
	"testing"
)

// TestBlockCholeskyMatchesPerBlock pins the flat packed-triangle arena to
// the per-block Cholesky path bit for bit: same factors, same Solve, same
// MulVec, across a spread of block sizes including 1×1 and the block-Jacobi
// default 10×10.
func TestBlockCholeskyMatchesPerBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var bc BlockCholesky
	var refs []*Cholesky
	sizes := []int{1, 2, 3, 7, 10, 10, 4, 9}
	for _, n := range sizes {
		a := randomSPD(n, rng)
		ch, err := Factor(a)
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ch)
		if err := bc.Append(a); err != nil {
			t.Fatal(err)
		}
	}
	if bc.NumBlocks() != len(sizes) {
		t.Fatalf("NumBlocks = %d, want %d", bc.NumBlocks(), len(sizes))
	}
	for b, n := range sizes {
		if bc.dims[b] != n {
			t.Fatalf("block %d has %d rows, want %d", b, bc.dims[b], n)
		}
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		want := append([]float64(nil), v...)
		refs[b].Solve(want)
		got := append([]float64(nil), v...)
		bc.Solve(b, got)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("block %d Solve[%d] = %x, per-block %x", b, i,
					math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
		wantM := make([]float64, n)
		refs[b].MulVec(wantM, v)
		gotM := make([]float64, n)
		bc.MulVec(b, gotM, v)
		for i := range gotM {
			if math.Float64bits(gotM[i]) != math.Float64bits(wantM[i]) {
				t.Fatalf("block %d MulVec[%d] = %x, per-block %x", b, i,
					math.Float64bits(gotM[i]), math.Float64bits(wantM[i]))
			}
		}
	}
}

// TestBlockCholeskySolvePairBitwise: the interleaved pair sweep must equal
// two independent Solve calls bit for bit, including mixed block sizes.
func TestBlockCholeskySolvePairBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var bc BlockCholesky
	sizes := []int{10, 9, 1, 10, 5, 2}
	for _, n := range sizes {
		if err := bc.Append(randomSPD(n, rng)); err != nil {
			t.Fatal(err)
		}
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
			w0 := append([]float64(nil), v0...)
			w1 := append([]float64(nil), v1...)
			bc.Solve(b0, w0)
			bc.Solve(b1, w1)
			bc.SolvePair(b0, b1, v0, v1)
			for i := range v0 {
				if math.Float64bits(v0[i]) != math.Float64bits(w0[i]) {
					t.Fatalf("pair (%d,%d) block0[%d]: %x != %x", b0, b1, i,
						math.Float64bits(v0[i]), math.Float64bits(w0[i]))
				}
			}
			for i := range v1 {
				if math.Float64bits(v1[i]) != math.Float64bits(w1[i]) {
					t.Fatalf("pair (%d,%d) block1[%d]: %x != %x", b0, b1, i,
						math.Float64bits(v1[i]), math.Float64bits(w1[i]))
				}
			}
		}
	}
}

// TestBlockCholeskyRejectsIndefinite mirrors Factor's SPD check: a failed
// Append must leave the arena unchanged and usable.
func TestBlockCholeskyRejectsIndefinite(t *testing.T) {
	var bc BlockCholesky
	rng := rand.New(rand.NewSource(7))
	if err := bc.Append(randomSPD(4, rng)); err != nil {
		t.Fatal(err)
	}
	bad := New(3)
	bad.Set(0, 0, -1)
	if err := bc.Append(bad); err == nil {
		t.Fatal("Append accepted an indefinite block")
	}
	if bc.NumBlocks() != 1 {
		t.Fatalf("failed Append corrupted the arena: %d blocks", bc.NumBlocks())
	}
	v := []float64{1, 2, 3, 4}
	bc.Solve(0, v) // must not panic on the surviving block
}

// mulVecWithTemp is MulVec as it was before it went in place: t = Lᵀ x in
// a temporary, then dst = L t top row first. Kept as the bitwise reference.
func mulVecWithTemp(bc *BlockCholesky, b int, dst, x []float64) {
	n := bc.dims[b]
	ut := bc.ut[bc.ptr[b]:bc.ptr[b+1]]
	t := make([]float64, n)
	up := 0
	for i := 0; i < n; i++ {
		var s float64
		row := ut[up : up+n-i]
		xs := x[i:n]
		for k, u := range row {
			s += u * xs[k]
		}
		t[i] = s
		up += n - i
	}
	l := bc.l[bc.ptr[b]:bc.ptr[b+1]]
	rp := 0
	for i := 0; i < n; i++ {
		var s float64
		row := l[rp : rp+i+1]
		for k, v := range row {
			s += v * t[k]
		}
		dst[i] = s
		rp += i + 1
	}
}

// TestBlockCholeskyMulVecInPlace: the temporary-free MulVec equals the
// two-buffer reference bit for bit on random SPD blocks of sizes 1–40 and
// allocates nothing.
func TestBlockCholeskyMulVecInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var bc BlockCholesky
	for n := 1; n <= 40; n++ {
		if err := bc.Append(randomSPD(n, rng)); err != nil {
			t.Fatal(err)
		}
	}
	x := make([]float64, 40)
	got := make([]float64, 40)
	want := make([]float64, 40)
	for b := 0; b < bc.NumBlocks(); b++ {
		n := bc.dims[b]
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range got {
			got[i] = math.NaN() // dst's old contents must not matter
		}
		bc.MulVec(b, got[:n], x[:n])
		mulVecWithTemp(&bc, b, want[:n], x[:n])
		for i := 0; i < n; i++ {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("block of size %d, entry %d: %x, reference %x", n, i,
					math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
	if a := testing.AllocsPerRun(20, func() {
		for b := 0; b < bc.NumBlocks(); b++ {
			bc.MulVec(b, got[:bc.dims[b]], x[:bc.dims[b]])
		}
	}); a != 0 {
		t.Fatalf("MulVec allocates %v times per sweep, want 0", a)
	}
}

// TestBlockCholeskySolveQuadBitwise: the batched sweep must equal one
// per-block Cholesky.Solve per block bit for bit — through the generated
// four-block code (dims 9 and 10), through SolvePair and Solve (every other
// dim, groups of mixed size, the 0…3 blocks left after the last four) — on
// uniform sequences of every dim 1…12 and on sequences that change between
// 10 and 9 the way block Jacobi's do.
func TestBlockCholeskySolveQuadBitwise(t *testing.T) {
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
	for _, sizes := range seqs {
		var bc BlockCholesky
		var v, want []float64
		for _, n := range sizes {
			a := randomSPD(n, rng)
			ch, err := Factor(a)
			if err != nil {
				t.Fatal(err)
			}
			if err := bc.Append(a); err != nil {
				t.Fatal(err)
			}
			vb := make([]float64, n)
			for i := range vb {
				vb[i] = rng.NormFloat64()
			}
			v = append(v, vb...)
			ch.Solve(vb)
			want = append(want, vb...)
		}
		bc.SolveAll(v)
		for i := range v {
			if math.Float64bits(v[i]) != math.Float64bits(want[i]) {
				t.Fatalf("sizes %v, entry %d: %x, per-block %x", sizes, i,
					math.Float64bits(v[i]), math.Float64bits(want[i]))
			}
		}
	}
	// The sweep only tests the generated code if it gets there: four blocks
	// of 9 or 10 are taken, anything else is refused and left alone.
	for n := 1; n <= 12; n++ {
		var bc BlockCholesky
		for _, m := range []int{n, n, n, n, n + 1} {
			if err := bc.Append(randomSPD(m, rng)); err != nil {
				t.Fatal(err)
			}
		}
		v := make([]float64, 4*n+1)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		before := slices.Clone(v)
		if took := bc.solveQuad(0, v); took != (n == 9 || n == 10) {
			t.Fatalf("four %d×%d blocks: solveQuad reports %v", n, n, took)
		} else if !took && !slices.Equal(v, before) {
			t.Fatalf("four %d×%d blocks: refused, yet v changed", n, n)
		}
		if bc.solveQuad(1, v) {
			t.Fatalf("blocks of %d, %d, %d, %d taken as one size", n, n, n, n+1)
		}
	}
}

// The committed solvequad_gen.go is what gen_solvequad.go writes (go generate
// ./internal/dense rewrites it).
func TestGeneratedSolveIsCurrent(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool to run the generator with")
	}
	cmd := exec.Command("go", "run", "gen_solvequad.go", "-stdout")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	want, err := cmd.Output()
	if err != nil {
		t.Fatalf("go run gen_solvequad.go -stdout: %v\n%s", err, &stderr)
	}
	got, err := os.ReadFile("solvequad_gen.go")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("solvequad_gen.go differs from what gen_solvequad.go writes (run go generate ./internal/dense)")
	}
}
