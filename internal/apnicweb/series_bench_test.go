package apnicweb

import (
	"testing"

	"repro/internal/apnic"
	"repro/internal/dates"
)

// The series endpoint used to find each day's (ASN, CC) row with a
// linear scan over all rows — O(rows) comparisons per day per request.
// These benchmarks pit that scan against the per-report index the server
// now builds once per day. On the seed world (~10k rows/day) the index
// is ~3 orders of magnitude faster per lookup, which is the difference
// between a series request costing 120 map probes and 1.2M row
// comparisons.

var benchSink apnic.Row

func benchTarget(rep *apnic.Report) seriesKey {
	row := rep.Rows[len(rep.Rows)/2] // median-position row: typical scan cost
	return seriesKey{row.ASN, row.CC}
}

func BenchmarkSeriesLookupLinearScan(b *testing.B) {
	rep := testGen.Generate(dates.New(2024, 4, 10))
	key := benchTarget(rep)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, row := range rep.Rows {
			if row.ASN == key.asn && row.CC == key.cc {
				benchSink = row
				break
			}
		}
	}
}

func BenchmarkSeriesLookupIndexed(b *testing.B) {
	srv := NewMultiServer(testW, 11, dates.New(2024, 1, 1), dates.New(2024, 12, 31), DefaultCacheDays)
	d := dates.New(2024, 4, 10)
	rep := srv.report(d)
	key := benchTarget(rep)
	srv.rowIndex(d) // build outside the timed region, as one request amortizes it
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if idx, ok := srv.rowIndex(d)[key]; ok {
			benchSink = rep.Rows[idx]
		}
	}
}
