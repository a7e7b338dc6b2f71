//go:build unix

package procchaos

import "syscall"

// stallSignal and resumeSignal freeze and thaw a member without an exit.
const stallSignal, resumeSignal = syscall.SIGSTOP, syscall.SIGCONT
