package apnic

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/dates"
	"repro/internal/itu"
	"repro/internal/scenario"
	"repro/internal/source"
	"repro/internal/world"
)

// checkFrameCSV holds WriteFrameCSV(r.Frame()) to r.WriteCSV: the same
// bytes through the same writes, and, against a writer failing after
// failAfter bytes, the same error with no later write.
func checkFrameCSV(t *testing.T, r *Report, failAfter int) {
	t.Helper()
	got, want := &writeLog{failAfter: failAfter}, &writeLog{failAfter: failAfter}
	gotErr, wantErr := WriteFrameCSV(r.Frame(), got), r.WriteCSV(want)
	if !errors.Is(gotErr, wantErr) {
		t.Fatalf("%s: error %v, WriteCSV %v", r.Date, gotErr, wantErr)
	}
	if !bytes.Equal(got.buf.Bytes(), want.buf.Bytes()) {
		t.Fatalf("%s: frame CSV differs from WriteCSV:\n%q\nvs\n%q", r.Date, got.buf.Bytes(), want.buf.Bytes())
	}
	if !slices.Equal(got.sizes, want.sizes) {
		t.Fatalf("%s: writes %v, WriteCSV %v", r.Date, got.sizes, want.sizes)
	}
	if got.late != 0 {
		t.Fatalf("%s: %d writes after the failed one", r.Date, got.late)
	}
}

// TestWriteFrameCSVMatchesWriteCSV is the differential test of the
// legacy layout rendered from a frame: sampled days of the paper world
// and of the cgnat-wave counterfactual, a report with hostile AS names
// and floats, and writers failing partway.
func TestWriteFrameCSVMatchesWriteCSV(t *testing.T) {
	cg, ok := scenario.ByName("cgnat-wave")
	if !ok {
		t.Fatal("no cgnat-wave builtin")
	}
	cgW, err := world.Build(world.Config{Seed: 11, Scenario: cg})
	if err != nil {
		t.Fatal(err)
	}
	days := []dates.Date{dates.New(2013, 11, 1), dates.New(2019, 1, 1), dates.New(2022, 6, 15), dates.New(2024, 12, 31)}
	for _, g := range []*Generator{testGen(), New(cgW, itu.New(cgW, 11), 11)} {
		for _, d := range days {
			checkFrameCSV(t, g.Generate(d), 0)
		}
	}
	hostile := hostileReport()
	for _, name := range []string{",", `"`, "\n", " leading space", `a,"b"` + "\n c"} {
		hostile.Rows = append(hostile.Rows, Row{Rank: len(hostile.Rows), ASN: 64512, ASName: name, CC: "FR"})
	}
	checkFrameCSV(t, hostile, 0)
	rep := testGen().Generate(dates.New(2024, 4, 21))
	for _, n := range []int{1, 4096, 100000} {
		checkFrameCSV(t, rep, n)
	}
	checkFrameCSV(t, hostile, 6000)
}

// TestWriteFrameCSVRejectsForeignFrames: a frame that is not
// report-shaped is an error before any byte is written.
func TestWriteFrameCSVRejectsForeignFrames(t *testing.T) {
	rep := testGen().Generate(dates.New(2024, 4, 21))
	noMeta := rep.Frame()
	noMeta.Meta = nil
	wrongKind := rep.Frame()
	wrongKind.Col("Samples").Kind = source.Float
	short := rep.Frame()
	short.Col("CC").Strs = short.Col("CC").Strs[:1]
	other := source.NewFrame("cdn", rep.Date)
	other.AddMeta("window-days", "7")
	other.AddStrings("CC")
	for name, f := range map[string]*source.Frame{
		"no window-days": noMeta, "float Samples": wrongKind, "short CC": short, "cdn columns": other,
	} {
		var w strings.Builder
		if err := WriteFrameCSV(f, &w); err == nil {
			t.Errorf("%s: no error", name)
		}
		if w.Len() != 0 {
			t.Errorf("%s: %d bytes written before the error", name, w.Len())
		}
	}
}

// TestWriteFrameCSVAllocBudget: like WriteCSV, the frame render costs
// the same handful of allocations for 10 rows as for 10,000.
func TestWriteFrameCSVAllocBudget(t *testing.T) {
	const budget = 16
	rep := testGen().Generate(dates.New(2024, 4, 21))
	for len(rep.Rows) < 10000 {
		rep.Rows = append(rep.Rows, rep.Rows...)
	}
	small := (&Report{Date: rep.Date, Window: rep.Window, Rows: rep.Rows[:10]}).Frame()
	large := (&Report{Date: rep.Date, Window: rep.Window, Rows: rep.Rows[:10000]}).Frame()
	a := testing.AllocsPerRun(5, func() { WriteFrameCSV(small, io.Discard) })
	b := testing.AllocsPerRun(5, func() { WriteFrameCSV(large, io.Discard) })
	if b > budget || a != b && !raceEnabled {
		t.Fatalf("WriteFrameCSV allocates %v times for 10 rows and %v for 10,000; want equal and at most %d", a, b, budget)
	}
}
