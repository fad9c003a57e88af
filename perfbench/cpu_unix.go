//go:build unix

package main

import (
	"syscall"
	"time"
)

// processCPU returns the CPU time, user plus system, the process has
// used so far. On a virtual machine whose kernel accounts steal time
// (paravirtual steal clock), time the host gave to other guests is not
// in it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
