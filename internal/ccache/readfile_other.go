//go:build !unix

package ccache

import "os"

// readFile reads the file at path with os.ReadFile, the one reader on
// platforms without the unix system calls; buf is not reused.
func readFile(path string, _ []byte) ([]byte, error) {
	return os.ReadFile(path)
}
