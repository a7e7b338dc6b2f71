//go:build !linux

package main

import "time"

// pause sleeps for d (no nanosleep on this platform: expect the open loop's
// diag.gen_late_p99_us to be around a millisecond).
func pause(d time.Duration) { time.Sleep(d) }
