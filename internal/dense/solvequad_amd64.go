package dense

// solveLanes9 and solveLanes10 are Solve on one group of four 9×9 or 10×10
// blocks (solvequad_amd64.s, written by gen_solvequad.go), block q in lane q
// of every ymm register: l points at the group's interleaved triangles, v at
// its four vectors back to back. Each lane runs Solve's multiplies,
// subtractions and divisions in Solve's order, never fused, so every block's
// result is bitwise Solve's. They check no bounds (solveGroup does) and
// allocate nothing.
//
//go:noescape
func solveLanes9(l, v *float64)

//go:noescape
func solveLanes10(l, v *float64)
