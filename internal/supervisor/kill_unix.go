//go:build unix

package supervisor

import "syscall"

func kill(pid int, sig syscall.Signal) error { return syscall.Kill(pid, sig) }
