package main

import (
	"syscall"
	"time"
)

// sleepUntilDue blocks for d. The runtime's timers wake an idle process
// on a millisecond grid, which at 400 requests/s would make the
// generator itself half a millisecond late on a typical slot; a
// nanosleep on the worker's thread wakes within tens of microseconds.
func sleepUntilDue(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for {
		var left syscall.Timespec
		if err := syscall.Nanosleep(&ts, &left); err != syscall.EINTR {
			return
		}
		ts = left
	}
}
