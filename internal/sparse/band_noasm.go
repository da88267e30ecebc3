//go:build !amd64

package sparse

// bandMulChunks and bandMulGroups are never reached: without a vector routine
// bandVector stays false and no run is transposed.
func bandMulChunks(vt *float64, off *int, w int, x, dst *float64, n8, n4 int) {
	panic("sparse: no vector band routine on this platform")
}

func bandMulGroups(vt *float64, off *int, w int, x, dst *float64, n4, n2, n1 int) {
	panic("sparse: no vector band routine on this platform")
}
