//go:build unix

package ccache

import (
	"slices"
	"syscall"
	"unsafe"
)

// readFile appends the file at path to buf with one open, reads until end
// of file and one close. It makes no *os.File, so a warm probe pays none of
// the fstat, the non-blocking fcntls and the failed poller registration
// os.ReadFile costs per entry. syscall.Open gets a string view of path's
// bytes, which it copies into its NUL-terminated argument and does not keep:
// that copy is the one allocation a read pays for its path. buf grows only
// when full, by at least the 512 bytes os.ReadFile starts from, so its size
// follows the bytes that actually arrived and never a length a header
// declares. The returned slice holds buf's storage on error too, for reuse.
func readFile(path []byte, buf []byte) ([]byte, error) {
	name := unsafe.String(unsafe.SliceData(path), len(path))
	fd, err := syscall.Open(name, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(name, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	}
	if err != nil {
		return buf, err
	}
	defer syscall.Close(fd)
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 512)
		}
		n, err := syscall.Read(fd, buf[len(buf):cap(buf)])
		switch {
		case err == syscall.EINTR:
		case err != nil:
			return buf, err
		case n == 0:
			return buf, nil
		default:
			buf = buf[:len(buf)+n]
		}
	}
}
