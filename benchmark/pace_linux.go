//go:build linux

package main

import (
	"syscall"
	"time"
)

// pause sleeps for d on the calling OS thread. The open loop calls it from a
// goroutine locked to its thread: nanosleep overshoots by tens of
// microseconds where time.Sleep, rounded up by the netpoller, overshoots a
// sub-millisecond wait by about a millisecond.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up (EINTR) only makes the caller loop again
}
