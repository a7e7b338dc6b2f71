//go:build !unix

package supervisor

import (
	"os"
	"syscall"
)

// kill delivers what the platform can: elsewhere than unix a process
// accepts only os.Kill, so stop and continue signals fail.
func kill(pid int, sig syscall.Signal) error {
	p, err := os.FindProcess(pid)
	if err != nil {
		return err
	}
	return p.Signal(sig)
}
