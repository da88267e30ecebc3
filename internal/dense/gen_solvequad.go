//go:build ignore

// gen_solvequad writes the two four-block solves of BlockCholesky.SolveAll:
// solvequad_gen.go, the portable Go one, and solvequad_amd64.s, the AVX one.
// Both are BlockCholesky.Solve over the four blocks of one group, every row's
// dot product unrolled. Run it with
//
//	go generate ./internal/dense
//
// (-dir writes the files elsewhere; TestGeneratedSolveIsCurrent compares what
// it writes there with the committed files.)
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"log"
	"os"
	"path/filepath"
)

// dims are the block sizes NewBlockJacobi produces at the paper's MaxBlock =
// 10 for every local range of 72 rows or more.
var dims = []int{9, 10}

// lanes is the number of blocks in a group: one per float64 lane of a ymm
// register. Entry e of lane q's packed lower triangle sits at l[e·lanes+q].
const lanes = 4

func main() {
	dir := flag.String("dir", ".", "directory to write solvequad_gen.go and solvequad_amd64.s to")
	flag.Parse()
	var src bytes.Buffer
	src.WriteString("// Code generated by gen_solvequad.go; DO NOT EDIT.\n\npackage dense\n")
	for _, n := range dims {
		solveQuad(&src, n)
	}
	out, err := format.Source(src.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	write(filepath.Join(*dir, "solvequad_gen.go"), out)
	var s bytes.Buffer
	s.WriteString("// Code generated by gen_solvequad.go; DO NOT EDIT.\n\n#include \"textflag.h\"\n")
	for _, n := range dims {
		solveLanes(&s, n)
	}
	write(filepath.Join(*dir, "solvequad_amd64.s"), s.Bytes())
}

func write(name string, b []byte) {
	if err := os.WriteFile(name, b, 0o644); err != nil {
		log.Fatal(err)
	}
}

// rp is where row i of a packed lower triangle starts: L[i][k] is entry
// rp(i)+k.
func rp(i int) int { return i * (i + 1) / 2 }

// solveQuad emits the Go solve of one group of n×n blocks. Block q's vector
// is v[q·n:(q+1)·n]; its entry i lives in the local variable named by letter
// q and digit i from the forward quotient to the final store, so nothing but
// the factor is read from memory in between. Each statement is one row of
// one block — Solve's subtractions in Solve's order, then the division — and
// rows of the four blocks alternate so that four division chains are in
// flight at once.
func solveQuad(w *bytes.Buffer, n int) {
	tri := rp(n)
	name := func(q, i int) string { return fmt.Sprintf("%c%d", 'a'+q, i) }
	at := func(e, q int) string { return fmt.Sprintf("l[%d]", e*lanes+q) }
	fmt.Fprintf(w, "\n// solveQuad%d is Solve on one group of four %d×%d blocks: l holds their\n", n, n, n)
	fmt.Fprintf(w, "// packed lower triangles interleaved [entry][lane] (%d entries), v their\n", lanes*tri)
	fmt.Fprintf(w, "// vectors back to back (%d each).\n", n)
	fmt.Fprintf(w, "func solveQuad%d(l, v []float64) {\n", n)
	fmt.Fprintf(w, "_, _ = l[%d], v[%d]\n", lanes*tri-1, lanes*n-1)
	// Forward, L y = v: row i reads L[i][0..i].
	for i := 0; i < n; i++ {
		for q := 0; q < lanes; q++ {
			s := fmt.Sprintf("v[%d]", q*n+i)
			for k := 0; k < i; k++ {
				s += fmt.Sprintf(" - %s*%s", at(rp(i)+k, q), name(q, k))
			}
			fmt.Fprintf(w, "%s := %s / %s\n", name(q, i), paren(s, i > 0), at(rp(i)+i, q))
		}
	}
	// Backward, Lᵀ x = y: row i reads column i, L[i+1..n)[i].
	for i := n - 1; i >= 0; i-- {
		for q := 0; q < lanes; q++ {
			s := name(q, i)
			for k := i + 1; k < n; k++ {
				s += fmt.Sprintf(" - %s*%s", at(rp(k)+i, q), name(q, k))
			}
			fmt.Fprintf(w, "%s = %s / %s\n", name(q, i), paren(s, i < n-1), at(rp(i)+i, q))
		}
	}
	for q := 0; q < lanes; q++ {
		for i := 0; i < n; i++ {
			fmt.Fprintf(w, "v[%d] = %s\n", q*n+i, name(q, i))
		}
	}
	w.WriteString("}\n")
}

func paren(s string, yes bool) string {
	if yes {
		return "(" + s + ")"
	}
	return s
}

// solveLanes emits the AVX solve of one group of n×n blocks: block q in lane
// q of every ymm register. Row i of all four blocks lives in Y<i> from its
// gather to its store, so nothing but the factor is read from memory in
// between, and one 32-byte load of the interleaved arena is one entry for all
// four blocks. Each row is Solve's: per entry one VMULPD, then one VSUBPD
// from the running value, in Solve's order, then one VDIVPD by the pivot. No
// fused multiply-add, on purpose: Solve rounds the product and then the
// difference, and every pinned trajectory holds those bits.
func solveLanes(w *bytes.Buffer, n int) {
	if n > 14 {
		log.Fatalf("solveLanes: %d rows do not fit in Y0…Y13", n)
	}
	// Entry e of the group is 32 bytes wide; entry i of block q's vector is
	// at byte 8·(q·n+i).
	at := func(e int) string { return fmt.Sprintf("%d(DI)", 32*e) }
	vq := func(q, i int) string { return fmt.Sprintf("%d(SI)", 8*(q*n+i)) }
	fmt.Fprintf(w, "\n// func solveLanes%d(l, v *float64)\n", n)
	fmt.Fprintf(w, "TEXT ·solveLanes%d(SB), NOSPLIT, $0-16\n", n)
	w.WriteString("\tMOVQ l+0(FP), DI\n\tMOVQ v+8(FP), SI\n")
	// Forward, L y = v.
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "\n\t// forward row %d\n", i)
		fmt.Fprintf(w, "\tVMOVSD %s, X%d\n", vq(0, i), i)
		fmt.Fprintf(w, "\tVMOVHPD %s, X%d, X%d\n", vq(1, i), i, i)
		fmt.Fprintf(w, "\tVMOVSD %s, X15\n", vq(2, i))
		fmt.Fprintf(w, "\tVMOVHPD %s, X15, X15\n", vq(3, i))
		fmt.Fprintf(w, "\tVINSERTF128 $1, X15, Y%d, Y%d\n", i, i)
		for k := 0; k < i; k++ {
			fmt.Fprintf(w, "\tVMULPD %s, Y%d, Y14\n", at(rp(i)+k), k)
			fmt.Fprintf(w, "\tVSUBPD Y14, Y%d, Y%d\n", i, i)
		}
		fmt.Fprintf(w, "\tVDIVPD %s, Y%d, Y%d\n", at(rp(i)+i), i, i)
	}
	// Backward, Lᵀ x = y; row i is final after its division.
	for i := n - 1; i >= 0; i-- {
		fmt.Fprintf(w, "\n\t// backward row %d\n", i)
		for k := i + 1; k < n; k++ {
			fmt.Fprintf(w, "\tVMULPD %s, Y%d, Y14\n", at(rp(k)+i), k)
			fmt.Fprintf(w, "\tVSUBPD Y14, Y%d, Y%d\n", i, i)
		}
		fmt.Fprintf(w, "\tVDIVPD %s, Y%d, Y%d\n", at(rp(i)+i), i, i)
		fmt.Fprintf(w, "\tVMOVSD X%d, %s\n", i, vq(0, i))
		fmt.Fprintf(w, "\tVMOVHPD X%d, %s\n", i, vq(1, i))
		fmt.Fprintf(w, "\tVEXTRACTF128 $1, Y%d, X15\n", i)
		fmt.Fprintf(w, "\tVMOVSD X15, %s\n", vq(2, i))
		fmt.Fprintf(w, "\tVMOVHPD X15, %s\n", vq(3, i))
	}
	w.WriteString("\n\tVZEROUPPER\n\tRET\n")
}
