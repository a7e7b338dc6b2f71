//go:build unix

package transport

import (
	"net"
	"syscall"
)

// rawConnOf returns a connection's raw socket for inline writes.
func rawConnOf(conn net.Conn) syscall.RawConn {
	tc, ok := conn.(*net.TCPConn)
	if !ok {
		return nil
	}
	raw, err := tc.SyscallConn()
	if err != nil {
		return nil
	}
	return raw
}

// write is the syscall.RawConn.Write callback of an inline write: it writes
// what the non-blocking socket takes and returns true, so the runtime never
// waits for the socket to drain.
func (w *inlineWrite) write(fd uintptr) bool {
	for w.n < len(w.b) {
		n, err := syscall.Write(int(fd), w.b[w.n:])
		if n > 0 {
			w.n += n
		}
		if err == syscall.EINTR {
			continue
		}
		if err != nil || n <= 0 {
			return true // would block, or failed: the writer takes over
		}
	}
	return true
}
