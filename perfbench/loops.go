package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Sample is one operation a load loop ran. Offsets are from the loop's
// start.
type Sample struct {
	Due  time.Duration // when the schedule wanted the op sent (closed loop: when it was sent)
	Sent time.Duration // when a worker began the op
	Done time.Duration // when the op returned
	// Late is the generator's own delay: how far past Due a worker that
	// was idle and waiting for this slot woke up. Zero when the slot
	// instead waited for a busy worker; that wait is queue wait.
	Late time.Duration
	Err  error
}

// Latency runs from the due time, so a stall charges every op queued
// behind it.
func (s Sample) Latency() time.Duration { return s.Done - s.Due }

// QueueWait is how long the op waited past its due time before it was
// sent, generator lateness included.
func (s Sample) QueueWait() time.Duration { return s.Sent - s.Due }

// Op runs operation i of a loop; worker is the index of the worker
// running it.
type Op func(ctx context.Context, worker, i int) error

// OpenLoop runs n ops on a fixed schedule: op i is due at
// start + i·interval, where start is returned. At most workers ops are
// in flight. A worker that is early sleeps until the due time; one that
// is late sends at once. No slot is ever dropped or shifted, so a stall
// shows as queue wait on every later op rather than vanishing from the
// schedule.
func OpenLoop(ctx context.Context, n int, interval time.Duration, workers int, op Op) ([]Sample, time.Time) {
	samples := make([]Sample, n)
	var next atomic.Int64
	// A short lead lets every worker reach its first sleep before slot 0
	// is due, so start-up is not charged as lateness.
	start := time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(i) * interval
				var late time.Duration
				if wait := due - time.Since(start); wait > 0 {
					sleepUntilDue(wait)
					late = time.Since(start) - due
				}
				sent := time.Since(start)
				err := op(ctx, w, i)
				samples[i] = Sample{Due: due, Sent: sent, Done: time.Since(start), Late: late, Err: err}
			}
		}()
	}
	wg.Wait()
	if ctx.Err() != nil {
		// Ops never started were not measured; keep the ones that ran.
		samples = samples[:min(int(next.Load()), n)]
	}
	return samples, start
}

// ClosedLoop runs workers clients that each send their next op only
// after the previous one returned and think has passed, until the
// duration has passed. Ops in flight at the deadline finish and are
// counted.
func ClosedLoop(ctx context.Context, workers int, d, think time.Duration, op Op) ([]Sample, time.Duration) {
	start := time.Now()
	per := make([][]Sample, workers)
	var seq atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Since(start) < d {
				if think > 0 && len(per[w]) > 0 {
					time.Sleep(think)
				}
				i := int(seq.Add(1) - 1)
				sent := time.Since(start)
				err := op(ctx, w, i)
				per[w] = append(per[w], Sample{Due: sent, Sent: sent, Done: time.Since(start), Err: err})
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var all []Sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all, wall
}

// loopStats reduces a loop's samples to latency, queue-wait and
// lateness distributions and a failure count.
type loopStats struct {
	Latency, QueueWait, Late Dist
	Failed                   int
	Span                     time.Duration // first due to last completion
}

func reduce(samples []Sample) loopStats {
	lat := make([]time.Duration, len(samples))
	wait := make([]time.Duration, len(samples))
	late := make([]time.Duration, len(samples))
	var st loopStats
	var first, last time.Duration
	for i, s := range samples {
		lat[i], wait[i], late[i] = s.Latency(), s.QueueWait(), s.Late
		if s.Err != nil {
			st.Failed++
		}
		if i == 0 || s.Due < first {
			first = s.Due
		}
		if s.Done > last {
			last = s.Done
		}
	}
	st.Latency = summarize(seconds(lat))
	st.QueueWait = summarize(seconds(wait))
	st.Late = summarize(seconds(late))
	st.Span = last - first
	return st
}

// windowed splits samples by due time into windows of length w and
// returns the median over full windows of each window's p50 and p95:
// a burst of interference from outside the process moves a window or
// two, not the figure. Samples in a trailing partial window are left
// out.
func windowed(samples []Sample, w time.Duration) (p50, p95 float64) {
	by := map[int][]float64{}
	var last int
	for _, s := range samples {
		i := int(s.Due / w)
		by[i] = append(by[i], s.Latency().Seconds())
		last = max(last, i)
	}
	var p50s, p95s []float64
	for i := 0; i < last; i++ {
		if d := summarize(by[i]); d.N > 0 {
			p50s, p95s = append(p50s, d.P50), append(p95s, d.P95)
		}
	}
	return median(p50s), median(p95s)
}
