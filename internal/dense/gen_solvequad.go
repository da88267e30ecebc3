//go:build ignore

// gen_solvequad writes solvequad_gen.go: BlockCholesky.Solve over four
// consecutive blocks of one dimension, every row's dot product unrolled and
// the four blocks interleaved row by row. Run it with
//
//	go generate ./internal/dense
//
// (-stdout prints the file instead; TestGeneratedSolveIsCurrent compares that
// with the committed one.)
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"log"
	"os"
)

// dims are the block sizes NewBlockJacobi produces at the paper's MaxBlock =
// 10 for every local range of 72 rows or more.
var dims = []int{9, 10}

const blocks = 4

func main() {
	stdout := flag.Bool("stdout", false, "print the generated file instead of writing solvequad_gen.go")
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
	if *stdout {
		_, err = os.Stdout.Write(out)
	} else {
		err = os.WriteFile("solvequad_gen.go", out, 0o644)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// solveQuad emits the solve for four n×n blocks. Block q's packed triangles
// start at q·n(n+1)/2 in l and ut and its vector at q·n in v; its entry i
// lives in the local variable named by letter q and digit i from the forward
// quotient to the final store, so nothing but the factor is read from memory
// in between. Each statement is one row of one block — Solve's subtractions
// in Solve's order, then the division — and rows of the four blocks alternate
// so that four division chains are in flight at once.
func solveQuad(w *bytes.Buffer, n int) {
	tri := n * (n + 1) / 2
	name := func(q, i int) string { return fmt.Sprintf("%c%d", 'a'+q, i) }
	fmt.Fprintf(w, "\n// solveQuad%d is Solve on four consecutive %d×%d blocks: l and ut hold their\n", n, n, n)
	fmt.Fprintf(w, "// packed triangles back to back (%d entries each), v their vectors (%d each).\n", tri, n)
	fmt.Fprintf(w, "func solveQuad%d(l, ut, v []float64) {\n", n)
	fmt.Fprintf(w, "_, _, _ = l[%d], ut[%d], v[%d]\n", blocks*tri-1, blocks*tri-1, blocks*n-1)
	// Forward, L y = v: row i of the packed lower triangle starts at i(i+1)/2.
	for i := 0; i < n; i++ {
		rp := i * (i + 1) / 2
		for q := 0; q < blocks; q++ {
			s := fmt.Sprintf("v[%d]", q*n+i)
			for k := 0; k < i; k++ {
				s += fmt.Sprintf(" - l[%d]*%s", q*tri+rp+k, name(q, k))
			}
			fmt.Fprintf(w, "%s := %s / l[%d]\n", name(q, i), paren(s, i > 0), q*tri+rp+i)
		}
	}
	// Backward, Lᵀ x = y: row i of the packed transpose holds L[i..n)[i].
	up := tri
	for i := n - 1; i >= 0; i-- {
		up -= n - i
		for q := 0; q < blocks; q++ {
			s := name(q, i)
			for k := i + 1; k < n; k++ {
				s += fmt.Sprintf(" - ut[%d]*%s", q*tri+up+k-i, name(q, k))
			}
			fmt.Fprintf(w, "%s = %s / ut[%d]\n", name(q, i), paren(s, i < n-1), q*tri+up)
		}
	}
	for q := 0; q < blocks; q++ {
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
