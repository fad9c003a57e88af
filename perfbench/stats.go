package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie above a percentile
// before the benchmark reports it: a p99 of 500 samples rests on five
// observations and moves with every stray GC pause.
const minBeyond = 10

// tailLadder is the order in which the tail rule tries percentiles: the
// highest one with at least minBeyond samples beyond it wins.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.90, 0.75}

// quantile returns the q-th quantile of sorted samples by linear
// interpolation between order statistics, or 0 for no samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (sorted[i+1]-sorted[i])*(pos-float64(i))
}

// supported reports whether n samples leave at least minBeyond samples
// above the q-th quantile. The tolerance absorbs rounding in 1-q: 100
// samples do leave 10 beyond p90.
func supported(n int, q float64) bool {
	return float64(n)*(1-q) >= minBeyond-1e-9
}

// tail returns the highest percentile no larger than want that the
// sample supports, and its value. With too few samples for any rung of
// tailLadder it falls back to the median, which is then the only timing
// the sample can carry.
func tail(sorted []float64, want float64) (q, v float64) {
	for _, q := range tailLadder {
		if q <= want && supported(len(sorted), q) {
			return q, quantile(sorted, q)
		}
	}
	return 0.5, quantile(sorted, 0.5)
}

// Dist summarises one population of timings in seconds.
type Dist struct {
	N      int
	P50    float64
	P95Q   float64 // percentile the tail rule chose for P95
	P95    float64 // value at P95Q: p95 when the sample supports it
	TailQ  float64 // percentile the tail rule chose for P99
	P99    float64 // value at TailQ: p99 when the sample supports it
	Max    float64
	sorted []float64
}

// summarize sorts xs in place and summarises it.
func summarize(xs []float64) Dist {
	sort.Float64s(xs)
	d := Dist{N: len(xs), sorted: xs}
	if len(xs) == 0 {
		return d
	}
	d.P50 = quantile(xs, 0.5)
	d.P95Q, d.P95 = tail(xs, 0.95)
	d.TailQ, d.P99 = tail(xs, 0.99)
	d.Max = xs[len(xs)-1]
	return d
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return quantile(c, 0.5)
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Step is one rung of the serve-hot rate ladder, as measured.
type Step struct {
	Offered   float64 // scheduled requests per second
	Achieved  float64 // completions per second over the step's span
	Latency   Dist    // from due time to last body byte, seconds
	Failed    int
	WaitEarly float64 // median queue wait over the first quarter of the step, seconds
	WaitLate  float64 // median queue wait over the last quarter, seconds
}

// Ladder rules: a step holds the SLO when its tail latency is at or
// under sloP99 with p99 supported by the sample, nothing failed, it
// achieved at least achievedShare of the offered rate, and queue wait
// did not grow across the step.
const (
	sloP99        = 0.050
	achievedShare = 0.98
	// waitGrowth bounds queue-wait growth: the last quarter's median
	// wait may exceed the first quarter's by at most this factor plus
	// waitSlack. A backlog that keeps building fails both.
	waitGrowth = 2.0
	waitSlack  = 0.002
)

// Verdict explains whether a step met the capacity rules.
func (s Step) Verdict() (ok bool, why string) {
	switch {
	case s.Latency.N == 0:
		return false, "no samples"
	case !supported(s.Latency.N, 0.99):
		return false, "too few samples for p99"
	case s.Failed > 0:
		return false, "failures"
	case s.Latency.P99 > sloP99:
		return false, "p99 over SLO"
	case s.Achieved < achievedShare*s.Offered:
		return false, "achieved below offered"
	case s.WaitLate > waitGrowth*s.WaitEarly+waitSlack:
		return false, "queue wait growing"
	}
	return true, "holds"
}

// capacity returns the index of the highest ladder step that holds the
// SLO with every lower step holding too, or -1 when the first fails.
// Steps must be in ascending offered rate.
func capacity(steps []Step) int {
	best := -1
	for i, s := range steps {
		if ok, _ := s.Verdict(); !ok {
			break
		}
		best = i
	}
	return best
}

// finite maps NaN and infinities to 0 so a degenerate run still prints
// valid JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// setLatency records a workload's wall-clock latency distribution as
// detail lines: p50_s, p95_s, p99_s, the percentiles the tail rule chose
// and the sample count.
func setLatency(res *Result, d Dist) {
	res.Info["p50_s"] = d.P50
	res.Info["p95_s"] = d.P95
	res.Info["p95_quantile"] = d.P95Q
	res.Info["p99_s"] = d.P99
	res.Info["p99_quantile"] = d.TailQ
	res.Info["latency_samples"] = float64(d.N)
}

// Meter reads wall and process CPU time from one starting point.
type Meter struct {
	wall time.Time
	cpu  time.Duration
}

func startMeter() Meter { return Meter{wall: time.Now(), cpu: processCPU()} }

// Elapsed returns the wall and CPU seconds since the meter started.
func (m Meter) Elapsed() (wall, cpu float64) {
	c := processCPU()
	return time.Since(m.wall).Seconds(), (c - m.cpu).Seconds()
}
