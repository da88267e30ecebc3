//go:build !unix

package ccache

import "os"

// readFile reads the file at path with os.ReadFile, the one reader on
// platforms without the unix system calls; the path is copied into a
// string and buf is not reused.
func readFile(path []byte, _ []byte) ([]byte, error) {
	return os.ReadFile(string(path))
}
