package cdn

import (
	"fmt"
	"slices"

	"repro/internal/dates"
	"repro/internal/obsv"
	"repro/internal/orgs"
	"repro/internal/source"
)

// DatasetName is the registry name of the CDN log-aggregate dataset.
const DatasetName = "cdn"

// Frame converts the snapshot to the uniform columnar form, one row per
// observed (country, org) pair sorted by country then org. Lossless:
// SnapshotFromFrame reconstructs an equal snapshot.
func (s *Snapshot) Frame() *source.Frame {
	pairs := make([]orgs.CountryOrg, 0, len(s.Stats))
	for pair := range s.Stats {
		pairs = append(pairs, pair)
	}
	slices.SortFunc(pairs, orgs.CompareCountryOrg)
	f := source.NewFrame(DatasetName, s.Date)
	cc := f.AddStrings("CC")
	org := f.AddStrings("Org")
	req := f.AddInts("Sampled Requests")
	bots := f.AddInts("Filtered Bots")
	uas := f.AddFloats("User Agents")
	bytes := f.AddFloats("Bytes")
	f.Reserve(len(pairs))
	for _, pair := range pairs {
		st := s.Stats[pair]
		cc.Strs = append(cc.Strs, pair.Country)
		org.Strs = append(org.Strs, pair.Org)
		req.Ints = append(req.Ints, st.SampledRequests)
		bots.Ints = append(bots.Ints, st.FilteredBots)
		uas.Floats = append(uas.Floats, st.UserAgents)
		bytes.Floats = append(bytes.Floats, st.Bytes)
	}
	return f
}

// SnapshotFromFrame reconstructs the native snapshot from its frame form.
func SnapshotFromFrame(f *source.Frame) (*Snapshot, error) {
	cc, org := f.Col("CC"), f.Col("Org")
	req, bots := f.Col("Sampled Requests"), f.Col("Filtered Bots")
	uas, bytes := f.Col("User Agents"), f.Col("Bytes")
	if cc == nil || org == nil || req == nil || bots == nil || uas == nil || bytes == nil {
		return nil, fmt.Errorf("cdn: frame is missing snapshot columns")
	}
	s := &Snapshot{Date: f.Date, Stats: make(map[orgs.CountryOrg]OrgStats, f.Rows())}
	for i := 0; i < f.Rows(); i++ {
		s.Stats[orgs.CountryOrg{Country: cc.Strs[i], Org: org.Strs[i]}] = OrgStats{
			SampledRequests: req.Ints[i],
			FilteredBots:    bots.Ints[i],
			UserAgents:      uas.Floats[i],
			Bytes:           bytes.Floats[i],
		}
	}
	return s, nil
}

// Source adapts the generator to the uniform source interface. The
// day-keyed native cache serves only the typed accessor, Snapshot;
// Generate converts a transient artifact, leaving the frame to the
// registry's cache alone.
type Source struct {
	gen  *Generator
	days *source.Days[*Snapshot]
}

// NewSource wraps a generator as a registrable source.
func NewSource(gen *Generator, metrics *obsv.Registry, cacheDays int) *Source {
	return &Source{
		gen:  gen,
		days: source.NewDays[*Snapshot](metrics, "source", DatasetName, cacheDays),
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

// Snapshot returns the memoized native snapshot for a day.
func (s *Source) Snapshot(d dates.Date) *Snapshot {
	return s.days.Get(d, s.gen.Generate)
}

// Generate implements source.Source.
func (s *Source) Generate(d dates.Date) *source.Frame {
	return s.gen.Generate(d).Frame()
}

// CacheStats reports the native snapshot cache's activity.
func (s *Source) CacheStats() source.CacheStats { return s.days.Stats() }
