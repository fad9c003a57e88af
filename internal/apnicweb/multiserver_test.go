package apnicweb

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dates"
	"repro/internal/source"
)

func multiServer(t *testing.T) (*Server, *httptest.Server, *Client) {
	t.Helper()
	srv := NewMultiServer(testW, 11, dates.New(2024, 1, 1), dates.New(2024, 12, 31), 30)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
}

var allDatasets = []string{"apnic", "cdn", "itu", "mlab", "dnscount", "broadband", "ixp"}

// TestAllDatasetsServed is the integration core of the roster contract:
// every dataset answers its dates route and serves one report, and the
// fetched frame round-trips through the client parser.
func TestAllDatasetsServed(t *testing.T) {
	srv, _, c := multiServer(t)
	d := dates.New(2024, 4, 21)
	if got := srv.Registry().Names(); len(got) != len(allDatasets) {
		t.Fatalf("registry serves %v", got)
	}
	for _, name := range allDatasets {
		dd, err := c.DatasetDates(context.Background(), name)
		if err != nil {
			t.Fatalf("%s dates: %v", name, err)
		}
		if dd.Dataset != name || dd.First != "2024-01-01" || dd.Last != "2024-12-31" || dd.Cadence == "" {
			t.Fatalf("%s dates = %+v", name, dd)
		}
		f, err := c.Frame(context.Background(), name, d, "csv")
		if err != nil {
			t.Fatalf("%s report: %v", name, err)
		}
		if f.Source != name || f.Rows() == 0 {
			t.Fatalf("%s frame: source=%q rows=%d", name, f.Source, f.Rows())
		}
		want, err := srv.Registry().Frame(name, d)
		if err != nil {
			t.Fatal(err)
		}
		if !f.Equal(want) {
			t.Fatalf("%s: fetched frame differs from generated frame", name)
		}
	}
}

// TestUnknownDatasetJSON404 is the satellite regression: an unknown
// dataset name must yield 404 with a JSON error body on every generic
// route family.
func TestUnknownDatasetJSON404(t *testing.T) {
	_, ts, _ := multiServer(t)
	for _, path := range []string{
		"/v1/nosuch/dates",
		"/v1/nosuch/reports/2024-04-21.csv",
		"/v1/nosuch/reports/2024-04-21",
		"/v1/nosuch/series/AS1?cc=FR",
	} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
			t.Errorf("GET %s Content-Type = %q, want JSON", path, ct)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
			t.Errorf("GET %s body %q is not a JSON error", path, body)
		} else if !strings.Contains(eb.Error, "nosuch") {
			t.Errorf("GET %s error %q does not name the dataset", path, eb.Error)
		}
	}
}

// TestLegacyAliasesByteIdentical pins the compatibility contract: the
// legacy APNIC routes on the multi server return the exact bytes of the
// native render — unchanged by the registry rerouting.
func TestLegacyAliasesByteIdentical(t *testing.T) {
	_, ts, _ := multiServer(t)
	d := dates.New(2024, 4, 21)

	get := func(path string) []byte {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	var wantCSV bytes.Buffer
	if err := testGen.Generate(d).WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}
	if got := get("/v1/reports/" + d.String() + ".csv"); !bytes.Equal(got, wantCSV.Bytes()) {
		t.Error("legacy /v1/reports CSV differs from the native render")
	}

	wantDates, err := json.Marshal(DateRange{First: "2024-01-01", Last: "2024-12-31"})
	if err != nil {
		t.Fatal(err)
	}
	if got := get("/v1/dates"); !bytes.Equal(bytes.TrimSpace(got), wantDates) {
		t.Errorf("legacy /v1/dates = %q, want %q", got, wantDates)
	}

	// The series alias must serve the same bytes as a second server built
	// over the same world and seed.
	row := testGen.Generate(d).Rows[0]
	q := "/v1/series/AS" + itoa(row.ASN) + "?cc=" + row.CC + "&from=2024-04-20&to=2024-04-22"
	solo := httptest.NewServer(NewMultiServer(testW, 11, dates.New(2024, 1, 1), dates.New(2024, 12, 31), DefaultCacheDays).Handler())
	defer solo.Close()
	soloResp, err := http.Get(solo.URL + q)
	if err != nil {
		t.Fatal(err)
	}
	soloBody, _ := io.ReadAll(soloResp.Body)
	soloResp.Body.Close()
	if got := get(q); !bytes.Equal(got, soloBody) {
		t.Errorf("legacy series alias differs:\n%q\nvs\n%q", got, soloBody)
	}
}

// TestGenericSeries exercises the generalized series route across three
// key shapes: apnic (AS + cc), itu (country key), cdn (org + cc).
func TestGenericSeries(t *testing.T) {
	srv, ts, _ := multiServer(t)
	d := dates.New(2024, 4, 10)

	getSeries := func(path string) GenericSeriesResponse {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		var sr GenericSeriesResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}

	rep := testGen.Generate(d)
	row := rep.Rows[0]
	sr := getSeries("/v1/apnic/series/AS" + itoa(row.ASN) + "?cc=" + row.CC + "&from=2024-04-10&to=2024-04-10")
	if len(sr.Points) != 1 {
		t.Fatalf("apnic series: %+v", sr)
	}
	if got := sr.Points[0].Values["Estimated Users"]; got != row.Users {
		t.Errorf("apnic series users = %v, want %v", got, row.Users)
	}

	sr = getSeries("/v1/itu/series/FR?from=2024-04-10&to=2024-04-10")
	if len(sr.Points) != 1 || sr.Points[0].Values["Users"] <= 0 {
		t.Fatalf("itu series: %+v", sr)
	}

	// Any (country, org) present in the CDN snapshot works as a key.
	f, err := srv.Registry().Frame("cdn", d)
	if err != nil {
		t.Fatal(err)
	}
	cc, org := f.Col("CC").Strs[0], f.Col("Org").Strs[0]
	sr = getSeries("/v1/cdn/series/" + org + "?cc=" + cc + "&from=2024-04-10&to=2024-04-10")
	if len(sr.Points) != 1 {
		t.Fatalf("cdn series: %+v", sr)
	}
	if _, ok := sr.Points[0].Values["Bytes"]; !ok {
		t.Errorf("cdn series point lacks Bytes: %+v", sr.Points[0])
	}

	// Missing cc on an org-keyed dataset is a 400.
	resp, err := ts.Client().Get(ts.URL + "/v1/cdn/series/" + org)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("cc-less cdn series = %d, want 400", resp.StatusCode)
	}
}

// TestMatchRowSemantics pins the series selector's match rule: a value
// matches a cell whose codec form (the frame CSV's text) it is, exactly
// as the per-cell formatting matcher it replaced compared them.
func TestMatchRowSemantics(t *testing.T) {
	f := source.NewFrame("x", dates.New(2024, 1, 1))
	f.AddStrings("CC").Strs = []string{"FR", "DE", "", "007", "FR", "FR"}
	f.AddInts("AS").Ints = []int64{7, -3, 0, 1 << 62, 8, 9}
	f.AddFloats("X").Floats = []float64{1.5, math.NaN(), math.Copysign(0, -1), math.Inf(1), 0, 1e21}
	cases := []struct {
		sel  map[string]string
		want int
	}{
		{map[string]string{}, 0},
		{map[string]string{"CC": "FR"}, 0},
		{map[string]string{"CC": "FR", "AS": "8"}, 4},
		{map[string]string{"CC": "007"}, 3},
		{map[string]string{"CC": ""}, 2},
		{map[string]string{"CC": "fr"}, -1},
		{map[string]string{"AS": "7"}, 0},
		{map[string]string{"AS": "007"}, -1},
		{map[string]string{"AS": "+7"}, -1},
		{map[string]string{"AS": " 7"}, -1},
		{map[string]string{"AS": "7.0"}, -1},
		{map[string]string{"AS": "-3"}, 1},
		{map[string]string{"AS": "0"}, 2},
		{map[string]string{"AS": "-0"}, -1},
		{map[string]string{"AS": "4611686018427387904"}, 3},
		{map[string]string{"AS": "99999999999999999999"}, -1},
		{map[string]string{"X": "1.5"}, 0},
		{map[string]string{"X": "1.50"}, -1},
		{map[string]string{"X": "NaN"}, 1},
		{map[string]string{"X": "nan"}, -1},
		{map[string]string{"X": "-0"}, 2},
		{map[string]string{"X": "0"}, 4},
		{map[string]string{"X": "+Inf"}, 3},
		{map[string]string{"X": "Inf"}, -1},
		{map[string]string{"X": "1e+21"}, 5},
		{map[string]string{"X": "1e21"}, -1},
		{map[string]string{"CC": "FR", "X": "1e+21"}, 5},
		{map[string]string{"CC": "DE", "AS": "7"}, -1},
		{map[string]string{"Missing": "x"}, -1},
	}
	// The replaced matcher, as the oracle: format every cell and compare.
	cell := func(c *source.Column, i int) string {
		switch c.Kind {
		case source.String:
			return c.Strs[i]
		case source.Int:
			return strconv.FormatInt(c.Ints[i], 10)
		}
		return strconv.FormatFloat(c.Floats[i], 'g', -1, 64)
	}
	formatted := func(sel map[string]string) int {
		for i := 0; i < f.Rows(); i++ {
			hit := true
			for name, v := range sel {
				if c := f.Col(name); c == nil || cell(c, i) != v {
					hit = false
				}
			}
			if hit {
				return i
			}
		}
		return -1
	}
	for _, tc := range cases {
		if got := matchRow(f, tc.sel); got != tc.want {
			t.Errorf("matchRow(%v) = %d, want %d", tc.sel, got, tc.want)
		}
		if old := formatted(tc.sel); old != tc.want {
			t.Errorf("formatting matcher(%v) = %d, want %d", tc.sel, old, tc.want)
		}
	}
}

// TestDatasetReportJSON checks the bare-date route serves the frame as
// JSON and it parses back equal.
func TestDatasetReportJSON(t *testing.T) {
	srv, ts, _ := multiServer(t)
	d := dates.New(2024, 2, 2)
	resp, err := ts.Client().Get(ts.URL + "/v1/dnscount/reports/" + d.String())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("Content-Type = %q", ct)
	}
	f, err := source.ReadJSON(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want, err := srv.Registry().Frame("dnscount", d)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Equal(want) {
		t.Fatal("JSON frame differs from generated frame")
	}
}
