package main

import (
	"testing"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// The tail rule reports the highest percentile with at least ten
// samples beyond it, falling back to the median when even p75 has fewer.
func TestTailFallsBack(t *testing.T) {
	for _, tc := range []struct {
		n     int
		want  float64
		wantQ float64
	}{
		{5000, 0.99, 0.99},
		{1000, 0.99, 0.99},
		{999, 0.99, 0.95}, // 9.99 samples beyond p99
		{500, 0.99, 0.95},
		{199, 0.99, 0.90}, // 9.95 beyond p95
		{100, 0.99, 0.90},
		{40, 0.99, 0.75},
		{39, 0.99, 0.5},
		{6, 0.99, 0.5},
		{1000, 0.90, 0.90}, // never above the percentile asked for
		{20000, 0.99, 0.99},
		{20000, 0.999, 0.999},
	} {
		q, v := tail(ramp(tc.n), tc.want)
		if q != tc.wantQ {
			t.Errorf("n=%d want p%g: chose p%g, want p%g", tc.n, tc.want*100, q*100, tc.wantQ*100)
		}
		if v != quantile(ramp(tc.n), q) {
			t.Errorf("n=%d: value %v is not the p%g of the sample", tc.n, v, q*100)
		}
	}
}

func TestSummarize(t *testing.T) {
	d := summarize(ramp(1001))
	near := func(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 }
	if d.N != 1001 || !near(d.P50, 501) || !near(d.P95, 951) || !near(d.P99, 991) || d.Max != 1001 {
		t.Fatalf("summarize(1..1001) = %+v", d)
	}
	if d.TailQ != 0.99 || d.P95Q != 0.95 {
		t.Fatalf("percentiles chosen: p95 at %v, p99 at %v", d.P95Q, d.TailQ)
	}
	if e := summarize(nil); e.N != 0 || e.P50 != 0 {
		t.Fatalf("empty summary %+v", e)
	}
}

// holding builds a rung that meets every capacity rule.
func holding(rate float64) Step {
	lat := make([]float64, 2000)
	for i := range lat {
		lat[i] = 0.002
	}
	return Step{Offered: rate, Achieved: rate, Latency: summarize(lat), WaitEarly: 0.0005, WaitLate: 0.0006}
}

func TestStepVerdict(t *testing.T) {
	slow := holding(600)
	for i := len(slow.Latency.sorted) - 30; i < len(slow.Latency.sorted); i++ {
		slow.Latency.sorted[i] = 0.2
	}
	slow.Latency = summarize(slow.Latency.sorted)
	few := holding(600)
	few.Latency = summarize(make([]float64, 500))
	failing := holding(600)
	failing.Failed = 1
	behind := holding(600)
	behind.Achieved = 500
	growing := holding(600)
	growing.WaitEarly, growing.WaitLate = 0.001, 0.030

	for _, tc := range []struct {
		name string
		s    Step
		ok   bool
		why  string
	}{
		{"holds", holding(600), true, "holds"},
		{"p99 over SLO", slow, false, "p99 over SLO"},
		{"too few samples", few, false, "too few samples for p99"},
		{"failures", failing, false, "failures"},
		{"achieved below offered", behind, false, "achieved below offered"},
		{"queue wait growing", growing, false, "queue wait growing"},
		{"no samples", Step{Offered: 600}, false, "no samples"},
	} {
		ok, why := tc.s.Verdict()
		if ok != tc.ok || why != tc.why {
			t.Errorf("%s: Verdict() = %v %q, want %v %q", tc.name, ok, why, tc.ok, tc.why)
		}
	}
}

// capacity is the highest rung that holds with every rung below it
// holding: a rung that holds above a failed one does not count.
func TestCapacityLadder(t *testing.T) {
	fail := func(rate float64) Step {
		s := holding(rate)
		s.Failed = 3
		return s
	}
	for _, tc := range []struct {
		name  string
		steps []Step
		want  int
	}{
		{"all hold", []Step{holding(400), holding(600), holding(1200)}, 2},
		{"knee mid-ladder", []Step{holding(400), holding(600), fail(1200)}, 1},
		{"first rung fails", []Step{fail(400), holding(600)}, -1},
		{"no recovery above a failure", []Step{holding(400), fail(600), holding(1200)}, 0},
		{"ladder stopped early", []Step{holding(400), fail(600)}, 0},
		{"empty", nil, -1},
	} {
		if got := capacity(tc.steps); got != tc.want {
			t.Errorf("%s: capacity = %d, want %d", tc.name, got, tc.want)
		}
	}
}
