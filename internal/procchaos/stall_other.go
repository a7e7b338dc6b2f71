//go:build !unix

package procchaos

import "syscall"

// Stalls need job-control signals, which only unix has: elsewhere these
// are refused when sent and a stall is logged as failed.
const stallSignal, resumeSignal = syscall.Signal(19), syscall.Signal(18)
