package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The seed-42 report must equal the committed file byte for byte: a
// one-byte change is a failed check.
func TestGoldenCatchesOneByteChange(t *testing.T) {
	report := []byte("# EXPERIMENTS — paper vs. measured\n\n| metric | paper | measured |\n| beta | 0.98 | 0.97 |\n")
	path := filepath.Join(t.TempDir(), "EXPERIMENTS.md")
	if err := os.WriteFile(path, report, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: goldenSeed, Golden: path}

	same := newResult()
	if err := checkGolden(same, cfg, report); err != nil {
		t.Fatal(err)
	}
	if same.Attempted != 1 || same.Failed != 0 {
		t.Fatalf("identical report: attempted %d failed %d", same.Attempted, same.Failed)
	}

	changed := append([]byte(nil), report...)
	changed[len(changed)-3] = '8' // 0.97 -> 0.98
	res := newResult()
	if err := checkGolden(res, cfg, changed); err != nil {
		t.Fatal(err)
	}
	if res.Failed != 1 || len(res.Problems) != 1 || !strings.Contains(res.Problems[0], "differs") {
		t.Fatalf("one-byte change: failed %d, problems %q", res.Failed, res.Problems)
	}

	missing := newResult()
	if err := checkGolden(missing, Config{Seed: goldenSeed, Golden: filepath.Join(t.TempDir(), "none.md")}, report); err != nil {
		t.Fatal(err)
	}
	if missing.Failed != 1 {
		t.Fatal("a missing golden report is not a failed check")
	}
}

// Self time is a span's length minus the union of its children's
// intervals, clipped to the span.
func TestSelfTimes(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []Span{
		{ID: 1, Layer: "client", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Layer: "apnicweb", Start: 2 * ms, End: 6 * ms},
		{ID: 3, Parent: 1, Layer: "apnicweb", Start: 4 * ms, End: 8 * ms},  // overlaps span 2
		{ID: 4, Parent: 1, Layer: "apnicweb", Start: 9 * ms, End: 12 * ms}, // runs past its parent
		{ID: 5, Parent: 2, Layer: "stream.snapshot", Start: 3 * ms, End: 4 * ms},
	}
	got := SelfTimes(spans)
	want := map[string]float64{
		"client":          0.003, // 10 - (2..8 and 9..10)
		"apnicweb":        0.003 + 0.004 + 0.003,
		"stream.snapshot": 0.001,
	}
	for layer, w := range want {
		if d := got[layer] - w; d > 1e-12 || d < -1e-12 {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], w)
		}
	}
}

func TestNilTracerIsFree(t *testing.T) {
	var tr *Tracer
	ran := false
	if d := tr.Time("x", "y", 0, func() { ran = true }); d < 0 || !ran {
		t.Fatal("nil tracer must run and time the function")
	}
	if tr.Spans() != nil || tr.NewID() != 0 {
		t.Fatal("nil tracer recorded state")
	}
}

// Results measured on different machine shapes are flagged, not
// compared.
func TestComparableFlagsShape(t *testing.T) {
	a := Record{Workload: "sweep", Seconds: 10, Shape: Shape{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"}}
	b := a
	b.Seed = 7
	if why := comparable(a, b); why != "" {
		t.Fatalf("same shape, different seed: %q", why)
	}
	b.Shape.GOMAXPROCS = 1
	if why := comparable(a, b); !strings.Contains(why, "machine shapes differ") {
		t.Fatalf("GOMAXPROCS 2 vs 1 compared: %q", why)
	}
	c := a
	c.Workload = "serve-hot"
	if comparable(a, c) == "" {
		t.Fatal("different workloads compared")
	}
}
