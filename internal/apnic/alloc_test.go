package apnic

import (
	"io"
	"testing"

	"repro/internal/dates"
)

// TestGenerateAllocBudget guards the allocation-free hot path: after the
// world's year/day caches are warm, a daily report costs a handful of
// allocations (the report struct, its row slice, and the per-country
// maps) — measured at ~14 per run. A reintroduced fmt.Sprintf or
// string-labelled Split in the per-(country, org, day) loops would add
// tens of thousands and trip the budget immediately.
func TestGenerateAllocBudget(t *testing.T) {
	const budget = 64
	g := testGen()
	d := dates.New(2024, 4, 21)
	g.Generate(d) // warm the world caches so steady-state cost is measured
	allocs := testing.AllocsPerRun(5, func() { g.Generate(d) })
	if allocs > budget {
		t.Fatalf("apnic.Generate allocates %v times per run, budget %d", allocs, budget)
	}
}

// TestWriteCSVAllocBudget: the report CSV costs the same handful of
// allocations (encoder, buffers, date string) for 10 rows as for 10,000;
// a string per cell would add tens of thousands.
func TestWriteCSVAllocBudget(t *testing.T) {
	const budget = 16
	rep := testGen().Generate(dates.New(2024, 4, 21))
	for len(rep.Rows) < 10000 {
		rep.Rows = append(rep.Rows, rep.Rows...)
	}
	small := &Report{Date: rep.Date, Window: rep.Window, Rows: rep.Rows[:10]}
	large := &Report{Date: rep.Date, Window: rep.Window, Rows: rep.Rows[:10000]}
	a := testing.AllocsPerRun(5, func() { small.WriteCSV(io.Discard) })
	b := testing.AllocsPerRun(5, func() { large.WriteCSV(io.Discard) })
	if b > budget || a != b && !raceEnabled {
		t.Fatalf("WriteCSV allocates %v times for 10 rows and %v for 10,000; want equal and at most %d", a, b, budget)
	}
}
