package apnicweb

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/apnic"
	"repro/internal/dates"
	"repro/internal/source"
)

// TestServerHoldsNoNativeDays serves every representation, the legacy
// report and series routes and the generic series route of several days
// of all seven datasets, then reads /metrics: no native day cache holds
// a day or was even asked for one (mlab, whose frames of one month
// convert one shared native dataset, holds at most the months touched),
// and each dataset's frame was generated once per distinct day served.
func TestServerHoldsNoNativeDays(t *testing.T) {
	_, ts, c := multiServer(t)
	// Consecutive days across a month boundary: every series below walks
	// exactly these days, and mlab touches two months.
	days := []dates.Date{dates.New(2024, 3, 31), dates.New(2024, 4, 1), dates.New(2024, 4, 2)}
	const months = 2
	get := func(path string) []byte {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s: %s", path, resp.Status, body)
		}
		return body
	}
	for _, name := range allDatasets {
		for _, d := range days {
			for _, row := range reprs {
				get("/v1/" + name + "/reports/" + d.String() + row.suffix)
			}
		}
		// A series over the served days, keyed by the first row of the
		// first day.
		f, err := c.Frame(context.Background(), name, days[0], "bin")
		if err != nil {
			t.Fatal(err)
		}
		var key string
		switch name {
		case "itu":
			key = f.Col("CC").Strs[0]
		case apnic.DatasetName:
			key = fmt.Sprintf("AS%d?cc=%s", f.Col("AS").Ints[0], f.Col("CC").Strs[0])
		default:
			key = f.Col("Org").Strs[0] + "?cc=" + f.Col("CC").Strs[0]
		}
		sep := "?"
		if strings.Contains(key, "?") {
			sep = "&"
		}
		get("/v1/" + name + "/series/" + key + sep + "from=" + days[0].String() + "&to=" + days[len(days)-1].String())
	}
	for _, d := range days {
		get("/v1/reports/" + d.String() + ".csv")
	}
	rep := testGen.Generate(days[0])
	get(fmt.Sprintf("/v1/series/AS%d?cc=%s&from=%s&to=%s", rep.Rows[0].ASN, rep.Rows[0].CC, days[0], days[len(days)-1]))

	var raw map[string]json.RawMessage
	if err := json.Unmarshal(get("/metrics?format=json"), &raw); err != nil {
		t.Fatal(err)
	}
	m := map[string]float64{}
	for k, v := range raw {
		var x float64
		if json.Unmarshal(v, &x) == nil {
			m[k] = x
		}
	}
	series := func(prefix, name string) float64 {
		t.Helper()
		key := fmt.Sprintf("%s{dataset=%q}", prefix, name)
		v, ok := m[key]
		if !ok {
			t.Fatalf("/metrics has no %s", key)
		}
		return v
	}
	for _, name := range allDatasets {
		if got := series("source_frame_generations_total", name); got != float64(len(days)) {
			t.Errorf("%s: %v frame generations for %d distinct days", name, got, len(days))
		}
		held, asked := series("source_cache_days", name), series("source_requests_total", name)
		if name == "mlab" {
			if held > months || series("source_generations_total", name) > months {
				t.Errorf("mlab native cache holds %v months (%v generated), want at most %d", held, series("source_generations_total", name), months)
			}
			// Every native request is a frame fill; none comes from a
			// typed accessor.
			if asked != series("source_frame_generations_total", name) {
				t.Errorf("mlab native cache asked %v times for %v frame fills", asked, series("source_frame_generations_total", name))
			}
			continue
		}
		if held != 0 || asked != 0 {
			t.Errorf("%s: native cache holds %v days after %v requests; the server must hold frames only", name, held, asked)
		}
	}
}

// brokenAPNIC serves apnic frames missing one column, the shape of a
// frame the legacy routes cannot read.
type brokenAPNIC struct{ drop string }

func (brokenAPNIC) Name() string { return apnic.DatasetName }

func (brokenAPNIC) Window() source.Window {
	return source.Window{First: source.SpanFirst, Last: source.SpanLast, Cadence: source.CadenceDaily}
}

func (b brokenAPNIC) Generate(d dates.Date) *source.Frame {
	f := testGen.Generate(d).Frame()
	f.Cols = slices.DeleteFunc(f.Cols, func(c *source.Column) bool { return c.Name == b.drop })
	return f
}

// TestLegacyRoutesFrameError: a frame the legacy routes cannot read
// answers 500 with the cause, on the report and the series route, and
// never panics (a panicking handler drops the connection instead).
func TestLegacyRoutesFrameError(t *testing.T) {
	rep := testGen.Generate(dates.New(2024, 5, 1))
	series := fmt.Sprintf("/v1/series/AS%d?cc=%s&from=2024-05-01&to=2024-05-02", rep.Rows[0].ASN, rep.Rows[0].CC)
	for _, drop := range []string{"AS", "CC", "Estimated Users", "Samples", "Rank"} {
		srv := NewMultiServer(testW, 11, dates.New(2024, 1, 1), dates.New(2024, 12, 31), 4)
		srv.reg = source.NewRegistry(srv.metrics, 4)
		srv.reg.Register(brokenAPNIC{drop})
		ts := httptest.NewServer(srv.Handler())
		paths := []string{"/v1/reports/2024-05-01.csv"}
		if drop != "Rank" { // the series route reads no Rank
			paths = append(paths, series)
		}
		for _, path := range paths {
			resp, err := ts.Client().Get(ts.URL + path)
			if err != nil {
				t.Fatalf("drop %q: GET %s: %v", drop, path, err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), drop) {
				t.Errorf("drop %q: GET %s = %d %q, want 500 naming the column", drop, path, resp.StatusCode, body)
			}
		}
		ts.Close()
	}
}
