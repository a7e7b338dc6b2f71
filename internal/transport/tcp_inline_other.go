//go:build !unix

package transport

import (
	"net"
	"syscall"
)

// rawConnOf reports no raw socket: without a portable non-blocking write,
// every frame goes through the writer goroutine.
func rawConnOf(net.Conn) syscall.RawConn { return nil }

// write is never called where rawConnOf reports no raw socket.
func (w *inlineWrite) write(uintptr) bool { return true }
