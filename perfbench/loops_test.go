package main

import (
	"context"
	"sync"
	"testing"
	"time"
)

// A stall in one op must not move any later op off the schedule: every
// due time stays on the grid, the ops queued behind the stall are sent
// late, and the wait is charged to their latency and reported as queue
// wait.
func TestOpenLoopKeepsScheduleThroughStall(t *testing.T) {
	const (
		n        = 40
		interval = 5 * time.Millisecond
		stall    = 100 * time.Millisecond
		stallAt  = 5
	)
	// Both workers serialise on one lock, as two connections to a
	// handler that stalls behind a shared resource would.
	var mu sync.Mutex
	samples, _ := OpenLoop(context.Background(), n, interval, 2, func(_ context.Context, _, i int) error {
		mu.Lock()
		defer mu.Unlock()
		if i == stallAt {
			time.Sleep(stall)
		}
		return nil
	})
	if len(samples) != n {
		t.Fatalf("got %d samples, want %d: a slot was dropped", len(samples), n)
	}
	for i, s := range samples {
		if s.Due != time.Duration(i)*interval {
			t.Fatalf("op %d due at %v, want %v: the schedule shifted", i, s.Due, time.Duration(i)*interval)
		}
		if s.Sent < s.Due || s.Done < s.Sent {
			t.Fatalf("op %d: due %v sent %v done %v out of order", i, s.Due, s.Sent, s.Done)
		}
	}
	// The op right after the stall was due 5ms in and could only finish
	// once the stall released the lock.
	next := samples[stallAt+1]
	if next.Latency() < stall-2*interval {
		t.Errorf("op after the stall: latency %v, want at least %v from its due time", next.Latency(), stall-2*interval)
	}
	st := reduce(samples)
	if st.QueueWait.Max < (stall / 2).Seconds() {
		t.Errorf("max queue wait %v, want the stall (%v) to show", time.Duration(st.QueueWait.Max*float64(time.Second)), stall)
	}
	// Queue wait dominates the ops behind the stall; the generator's own
	// lateness is reported apart from it and stays small.
	if st.Late.P50 > float64(interval)/float64(time.Second) {
		t.Errorf("median generator lateness %.4fs exceeds the interval", st.Late.P50)
	}
}

// The generator reports how late it woke for a slot it was waiting on,
// separately from queue wait.
func TestOpenLoopReportsLateness(t *testing.T) {
	samples, _ := OpenLoop(context.Background(), 20, 2*time.Millisecond, 1, func(context.Context, int, int) error { return nil })
	for i, s := range samples {
		if s.Late < 0 {
			t.Fatalf("op %d: negative lateness %v", i, s.Late)
		}
		if s.Late > 0 && s.Sent-s.Due < s.Late {
			t.Fatalf("op %d: lateness %v exceeds its queue wait %v", i, s.Late, s.Sent-s.Due)
		}
	}
}

func TestClosedLoopStopsAtDeadline(t *testing.T) {
	start := time.Now()
	samples, wall := ClosedLoop(context.Background(), 2, 50*time.Millisecond, time.Millisecond, func(context.Context, int, int) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	})
	if len(samples) == 0 {
		t.Fatal("no ops ran")
	}
	if el := time.Since(start); el > time.Second || wall > time.Second {
		t.Fatalf("closed loop ran %v (wall %v), want about 50ms", el, wall)
	}
	for _, s := range samples {
		if s.Due != s.Sent {
			t.Fatalf("closed loop op due %v but sent %v: a closed loop has no schedule", s.Due, s.Sent)
		}
	}
}

func TestWindowedDropsPartialWindow(t *testing.T) {
	var samples []Sample
	for i := 0; i < 300; i++ {
		due := time.Duration(i) * 10 * time.Millisecond
		lat := time.Millisecond
		if i >= 200 {
			lat = time.Second // the last, partial window
		}
		samples = append(samples, Sample{Due: due, Sent: due, Done: due + lat})
	}
	p50, p95 := windowed(samples, 1*time.Second)
	if p50 != 0.001 || p95 != 0.001 {
		t.Fatalf("windowed p50 %v p95 %v, want 0.001 for both: the trailing window must not count", p50, p95)
	}
}
