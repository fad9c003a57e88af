package apnic

import (
	"fmt"
	"strconv"

	"repro/internal/dates"
	"repro/internal/obsv"
	"repro/internal/source"
)

// DatasetName is the registry name of the APNIC per-AS population dataset.
const DatasetName = "apnic"

// Frame converts the report to the uniform columnar form. The columns
// mirror the public dataset's CSV layout (§3.2); the conversion is
// lossless — ReportFromFrame reconstructs an equal report.
func (r *Report) Frame() *source.Frame {
	f := source.NewFrame(DatasetName, r.Date)
	f.AddMeta("window-days", strconv.Itoa(r.Window))
	rank := f.AddInts("Rank")
	as := f.AddInts("AS")
	name := f.AddStrings("AS Name")
	cc := f.AddStrings("CC")
	users := f.AddFloats("Estimated Users")
	pctCC := f.AddFloats("% of Country")
	pctNet := f.AddFloats("% of Internet")
	samples := f.AddInts("Samples")
	f.Reserve(len(r.Rows))
	for _, row := range r.Rows {
		rank.Ints = append(rank.Ints, int64(row.Rank))
		as.Ints = append(as.Ints, int64(row.ASN))
		name.Strs = append(name.Strs, row.ASName)
		cc.Strs = append(cc.Strs, row.CC)
		users.Floats = append(users.Floats, row.Users)
		pctCC.Floats = append(pctCC.Floats, row.PctCountry)
		pctNet.Floats = append(pctNet.Floats, row.PctInternet)
		samples.Ints = append(samples.Ints, row.Samples)
	}
	return f
}

// columnKinds are the kinds of a report frame's columns, which carry the
// csvHeader names in the same order.
var columnKinds = [...]source.Kind{
	source.Int, source.Int, source.String, source.String,
	source.Float, source.Float, source.Float, source.Int,
}

// frameColumns returns a report frame's window and its columns in
// csvHeader order, or an error when the frame is not report-shaped.
func frameColumns(f *source.Frame) (window string, cols [len(columnKinds)]*source.Column, err error) {
	window, ok := f.MetaValue("window-days")
	if !ok {
		return "", cols, fmt.Errorf("apnic: frame has no window-days metadata")
	}
	for i, name := range csvHeader {
		if cols[i], err = f.TypedCol(name, columnKinds[i]); err != nil {
			return "", cols, fmt.Errorf("apnic: %w", err)
		}
	}
	return window, cols, nil
}

// ReportFromFrame reconstructs the native report from its frame form.
func ReportFromFrame(f *source.Frame) (*Report, error) {
	wd, cols, err := frameColumns(f)
	if err != nil {
		return nil, err
	}
	window, err := strconv.Atoi(wd)
	if err != nil {
		return nil, fmt.Errorf("apnic: frame window-days: %w", err)
	}
	rank, as, name, cc, users, pctCC, pctNet, samples := cols[0], cols[1], cols[2], cols[3], cols[4], cols[5], cols[6], cols[7]
	r := &Report{Date: f.Date, Window: window, Rows: make([]Row, f.Rows())}
	for i := range r.Rows {
		r.Rows[i] = Row{
			Rank:        int(rank.Ints[i]),
			ASN:         uint32(as.Ints[i]),
			ASName:      name.Strs[i],
			CC:          cc.Strs[i],
			Users:       users.Floats[i],
			PctCountry:  pctCC.Floats[i],
			PctInternet: pctNet.Floats[i],
			Samples:     samples.Ints[i],
		}
	}
	return r, nil
}

// Source adapts the generator to the uniform source interface. Its
// native-report cache serves the typed accessor, Report; Generate
// converts a transient report and caches nothing, because the registry
// above it keeps the frame and a second resident copy of the day would
// only double its memory.
type Source struct {
	gen  *Generator
	days *source.Days[*Report]
}

// NewSource wraps a generator as a registrable source whose native-report
// cache holds at most cacheDays days.
func NewSource(gen *Generator, metrics *obsv.Registry, cacheDays int) *Source {
	return &Source{
		gen:  gen,
		days: source.NewDays[*Report](metrics, "source", DatasetName, cacheDays),
	}
}

// Generator returns the wrapped generator.
func (s *Source) Generator() *Generator { return s.gen }

// Name implements source.Source.
func (s *Source) Name() string { return DatasetName }

// Window implements source.Source.
func (s *Source) Window() source.Window {
	return source.Window{First: source.SpanFirst, Last: source.SpanLast, Cadence: source.CadenceDaily}
}

// Report returns the memoized native report for a day (the experiment
// lab's entry point; frames never go through this cache).
func (s *Source) Report(d dates.Date) *Report {
	return s.days.Get(d, s.gen.Generate)
}

// Generate implements source.Source.
func (s *Source) Generate(d dates.Date) *source.Frame {
	return s.gen.Generate(d).Frame()
}

// CacheStats reports the native report cache's activity.
func (s *Source) CacheStats() source.CacheStats { return s.days.Stats() }
