//go:build !amd64

package cpu

func hasAVX() bool { return false }
