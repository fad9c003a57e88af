package bundle

import (
	"fmt"
	"testing"

	"repro/internal/apnic"
	"repro/internal/broadband"
	"repro/internal/cdn"
	"repro/internal/dnscount"
	"repro/internal/itu"
	"repro/internal/ixp"
	"repro/internal/mlab"
	"repro/internal/orgs"
	"repro/internal/source"
)

// framer is what every dataset's native artifact offers the frame layer.
type framer interface{ Frame() *source.Frame }

// pairs returns n distinct (country, org) pairs over a few countries.
func pairs(n int) []orgs.CountryOrg {
	out := make([]orgs.CountryOrg, n)
	for i := range out {
		out[i] = orgs.CountryOrg{Country: fmt.Sprintf("C%d", i%7), Org: fmt.Sprintf("org-%05d", i)}
	}
	return out
}

// nativeOfSize builds, per dataset, a synthetic native artifact whose
// frame has exactly n rows.
var nativeOfSize = map[string]func(n int) framer{
	"apnic": func(n int) framer {
		r := &apnic.Report{Date: testDay, Window: 7}
		for i, p := range pairs(n) {
			r.Rows = append(r.Rows, apnic.Row{Rank: i + 1, ASN: uint32(i), ASName: p.Org, CC: p.Country, Users: float64(i)})
		}
		return r
	},
	"cdn": func(n int) framer {
		s := &cdn.Snapshot{Date: testDay, Stats: map[orgs.CountryOrg]cdn.OrgStats{}}
		for i, p := range pairs(n) {
			s.Stats[p] = cdn.OrgStats{SampledRequests: int64(i), Bytes: float64(i)}
		}
		return s
	},
	"itu": func(n int) framer {
		t := &itu.Table{Date: testDay, Users: map[string]float64{}}
		for i, p := range pairs(n) {
			t.Users[p.Org] = float64(i)
		}
		return t
	},
	"mlab": func(n int) framer {
		ds := &mlab.Dataset{Month: testDay, Counts: map[orgs.CountryOrg]float64{}}
		for i, p := range pairs(n) {
			ds.Counts[p] = float64(i)
		}
		return ds
	},
	"dnscount": func(n int) framer {
		ds := &dnscount.Dataset{Date: testDay, Queries: map[orgs.CountryOrg]float64{}}
		for i, p := range pairs(n) {
			ds.Queries[p] = float64(i)
		}
		return ds
	},
	"broadband": func(n int) framer {
		ds := &broadband.Dataset{Date: testDay, Shares: map[string]map[string]float64{}}
		for i, p := range pairs(n) {
			if ds.Shares[p.Country] == nil {
				ds.Shares[p.Country] = map[string]float64{}
			}
			ds.Shares[p.Country][p.Org] = float64(i + 1)
		}
		return ds
	},
	"ixp": func(n int) framer {
		// The public and private maps overlap in their middle third, so
		// the frame is their union of n pairs.
		s := &ixp.Snapshot{Date: testDay, Capacities: map[orgs.CountryOrg]float64{}, PNI: map[orgs.CountryOrg]float64{}}
		for i, p := range pairs(n) {
			if i < 2*n/3 {
				s.Capacities[p] = float64(i + 1)
			}
			if i >= n/3 {
				s.PNI[p] = float64(i + 1)
			}
		}
		return s
	},
}

// TestFrameConversionsExactSize: every dataset's native→frame conversion
// sizes its columns exactly (cap == len, so a cached frame carries no
// slack), and its allocation count is the same for 10 rows as for 5,000
// — one allocation per column, not an append-doubling chain per column.
func TestFrameConversionsExactSize(t *testing.T) {
	if len(nativeOfSize) != len(allDatasets) {
		t.Fatalf("%d synthetic datasets for a roster of %d", len(nativeOfSize), len(allDatasets))
	}
	for _, name := range allDatasets {
		t.Run(name, func(t *testing.T) {
			small, large := nativeOfSize[name](10), nativeOfSize[name](5000)
			for _, c := range []struct {
				native framer
				rows   int
			}{{small, 10}, {large, 5000}} {
				f := c.native.Frame()
				if f.Rows() != c.rows {
					t.Fatalf("frame has %d rows, want %d", f.Rows(), c.rows)
				}
				for _, col := range f.Cols {
					var capacity int
					switch col.Kind {
					case source.String:
						capacity = cap(col.Strs)
					case source.Int:
						capacity = cap(col.Ints)
					default:
						capacity = cap(col.Floats)
					}
					if capacity != col.Len() {
						t.Errorf("%d rows: column %q has cap %d, len %d", c.rows, col.Name, capacity, col.Len())
					}
				}
			}
			a := testing.AllocsPerRun(5, func() { small.Frame() })
			b := testing.AllocsPerRun(5, func() { large.Frame() })
			if a != b {
				t.Errorf("Frame allocates %v times for 10 rows and %v for 5,000; want equal", a, b)
			}
		})
	}
}
