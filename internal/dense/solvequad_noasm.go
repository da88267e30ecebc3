//go:build !amd64

package dense

// solveLanes9 and solveLanes10 are never reached: without a vector routine
// cpu.AVX is false and every group takes the generated Go solve.
func solveLanes9(l, v *float64) {
	panic("dense: no vector solve on this platform")
}

func solveLanes10(l, v *float64) {
	panic("dense: no vector solve on this platform")
}
