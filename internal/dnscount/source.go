package dnscount

import (
	"fmt"
	"slices"

	"repro/internal/dates"
	"repro/internal/obsv"
	"repro/internal/orgs"
	"repro/internal/source"
)

// DatasetName is the registry name of the open-resolver query dataset.
const DatasetName = "dnscount"

// Frame converts the dataset to the uniform columnar form, one row per
// (country, org) pair sorted by country then org. Lossless:
// DatasetFromFrame reconstructs an equal dataset.
func (ds *Dataset) Frame() *source.Frame {
	pairs := make([]orgs.CountryOrg, 0, len(ds.Queries))
	for pair := range ds.Queries {
		pairs = append(pairs, pair)
	}
	slices.SortFunc(pairs, orgs.CompareCountryOrg)
	f := source.NewFrame(DatasetName, ds.Date)
	cc := f.AddStrings("CC")
	org := f.AddStrings("Org")
	q := f.AddFloats("Queries")
	f.Reserve(len(pairs))
	for _, pair := range pairs {
		cc.Strs = append(cc.Strs, pair.Country)
		org.Strs = append(org.Strs, pair.Org)
		q.Floats = append(q.Floats, ds.Queries[pair])
	}
	return f
}

// DatasetFromFrame reconstructs the native dataset from its frame form.
func DatasetFromFrame(f *source.Frame) (*Dataset, error) {
	cc, org, q := f.Col("CC"), f.Col("Org"), f.Col("Queries")
	if cc == nil || org == nil || q == nil {
		return nil, fmt.Errorf("dnscount: frame is missing dataset columns")
	}
	ds := &Dataset{Date: f.Date, Queries: make(map[orgs.CountryOrg]float64, f.Rows())}
	for i := 0; i < f.Rows(); i++ {
		ds.Queries[orgs.CountryOrg{Country: cc.Strs[i], Org: org.Strs[i]}] = q.Floats[i]
	}
	return ds, nil
}

// Source adapts the generator to the uniform source interface. The
// day-keyed native cache serves only the typed accessor, Dataset;
// Generate converts a transient artifact, leaving the frame to the
// registry's cache alone.
type Source struct {
	gen  *Generator
	days *source.Days[*Dataset]
}

// NewSource wraps a generator as a registrable source.
func NewSource(gen *Generator, metrics *obsv.Registry, cacheDays int) *Source {
	return &Source{
		gen:  gen,
		days: source.NewDays[*Dataset](metrics, "source", DatasetName, cacheDays),
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

// Dataset returns the memoized native dataset for a day.
func (s *Source) Dataset(d dates.Date) *Dataset {
	return s.days.Get(d, s.gen.Generate)
}

// Generate implements source.Source.
func (s *Source) Generate(d dates.Date) *source.Frame {
	return s.gen.Generate(d).Frame()
}

// CacheStats reports the native dataset cache's activity.
func (s *Source) CacheStats() source.CacheStats { return s.days.Stats() }
