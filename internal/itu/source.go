package itu

import (
	"fmt"
	"slices"

	"repro/internal/dates"
	"repro/internal/obsv"
	"repro/internal/source"
)

// DatasetName is the registry name of the ITU per-country estimate series.
const DatasetName = "itu"

// Table is the day-keyed native artifact of the estimator: every
// country's estimate for the week containing Date. The estimator itself
// exposes only point lookups (Users), so the table is what gives the ITU
// series a Generate-shaped entry point for the source registry.
type Table struct {
	Date  dates.Date
	Users map[string]float64 // country -> estimated Internet users
}

// Generate collects the full per-country table for the week containing d.
// Every country of the world appears, including zero-user ones, so a
// frame consumer sees the same domain as direct Users calls.
func (e *Estimator) Generate(d dates.Date) *Table {
	t := &Table{Date: d, Users: map[string]float64{}}
	for _, cc := range e.w.Countries() {
		t.Users[cc] = e.Users(cc, d)
	}
	return t
}

// Total returns the table's world total, matching WorldTotal for the
// table's date.
func (t *Table) Total() float64 {
	total := 0.0
	for _, v := range t.Users {
		total += v
	}
	return total
}

// Frame converts the table to the uniform columnar form, one row per
// country sorted by code. Lossless: TableFromFrame reconstructs an equal
// table.
func (t *Table) Frame() *source.Frame {
	ccs := make([]string, 0, len(t.Users))
	for cc := range t.Users {
		ccs = append(ccs, cc)
	}
	slices.Sort(ccs)
	f := source.NewFrame(DatasetName, t.Date)
	cc := f.AddStrings("CC")
	users := f.AddFloats("Users")
	f.Reserve(len(ccs))
	for _, c := range ccs {
		cc.Strs = append(cc.Strs, c)
		users.Floats = append(users.Floats, t.Users[c])
	}
	return f
}

// TableFromFrame reconstructs the native table from its frame form.
func TableFromFrame(f *source.Frame) (*Table, error) {
	cc, users := f.Col("CC"), f.Col("Users")
	if cc == nil || users == nil {
		return nil, fmt.Errorf("itu: frame is missing table columns")
	}
	t := &Table{Date: f.Date, Users: make(map[string]float64, f.Rows())}
	for i := 0; i < f.Rows(); i++ {
		t.Users[cc.Strs[i]] = users.Floats[i]
	}
	return t, nil
}

// Source adapts the estimator to the uniform source interface. The
// day-keyed native cache serves only the typed accessor, Table;
// Generate converts a transient artifact, leaving the frame to the
// registry's cache alone.
type Source struct {
	est  *Estimator
	days *source.Days[*Table]
}

// NewSource wraps an estimator as a registrable source.
func NewSource(est *Estimator, metrics *obsv.Registry, cacheDays int) *Source {
	return &Source{
		est:  est,
		days: source.NewDays[*Table](metrics, "source", DatasetName, cacheDays),
	}
}

// Estimator returns the wrapped estimator.
func (s *Source) Estimator() *Estimator { return s.est }

// Name implements source.Source.
func (s *Source) Name() string { return DatasetName }

// Window implements source.Source.
func (s *Source) Window() source.Window {
	return source.Window{First: source.SpanFirst, Last: source.SpanLast, Cadence: source.CadenceWeekly}
}

// Table returns the memoized native table for a day.
func (s *Source) Table(d dates.Date) *Table {
	return s.days.Get(d, s.est.Generate)
}

// Generate implements source.Source.
func (s *Source) Generate(d dates.Date) *source.Frame {
	return s.est.Generate(d).Frame()
}

// CacheStats reports the native table cache's activity.
func (s *Source) CacheStats() source.CacheStats { return s.days.Stats() }
