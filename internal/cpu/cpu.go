// Package cpu answers, once per process, which vector instructions the
// arithmetic kernels may use. internal/sparse (the band SpMV routines) and
// internal/dense (the four-block triangular solve) read the same answer, so
// one platform check decides every kernel's route.
package cpu

// AVX reports whether the CPU and the operating system both support 256-bit
// AVX: CPUID leaf 1 announces OSXSAVE and AVX, and XCR0 says the system saves
// the xmm and ymm halves on a context switch. It is false on every platform
// without an AVX routine. Tests clear it to send the same work through the
// portable code: internal/dense reads it at every group solve,
// internal/sparse once, into bandVector.
var AVX = hasAVX()
