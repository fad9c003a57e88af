//go:build !unix

package main

import "time"

// processCPU is unavailable here: the end-to-end metrics need it.
func processCPU() time.Duration {
	fatalf("process CPU time is not available on this platform")
	return 0
}
