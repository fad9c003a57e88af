package apnicweb

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"repro/internal/apnic"
	"repro/internal/dates"
	"repro/internal/itu"
	"repro/internal/world"
)

var (
	testW   = world.MustBuild(world.Config{Seed: 11})
	testGen = apnic.New(testW, itu.New(testW, 11), 11)
)

func testServer(t *testing.T) (*httptest.Server, *Client) {
	t.Helper()
	srv := NewMultiServer(testW, 11, dates.New(2024, 1, 1), dates.New(2024, 12, 31), DefaultCacheDays)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
}

func TestHealthz(t *testing.T) {
	ts, _ := testServer(t)
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestDatesEndpoint(t *testing.T) {
	_, c := testServer(t)
	first, last, err := c.Dates(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if first != dates.New(2024, 1, 1) || last != dates.New(2024, 12, 31) {
		t.Fatalf("range = %v..%v", first, last)
	}
}

func TestReportRoundTrip(t *testing.T) {
	_, c := testServer(t)
	d := dates.New(2024, 4, 21)
	got, err := c.Report(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	want := testGen.Generate(d)
	if got.Date != d || len(got.Rows) != len(want.Rows) {
		t.Fatalf("fetched %d rows for %v, want %d", len(got.Rows), got.Date, len(want.Rows))
	}
	for i := range want.Rows {
		if got.Rows[i].ASN != want.Rows[i].ASN || got.Rows[i].Samples != want.Rows[i].Samples {
			t.Fatalf("row %d differs: %+v vs %+v", i, got.Rows[i], want.Rows[i])
		}
	}
}

func TestReportCaching(t *testing.T) {
	ts, _ := testServer(t)
	d := dates.New(2024, 3, 3)
	var bodies [][]byte
	for i := 0; i < 2; i++ {
		resp, err := ts.Client().Get(ts.URL + "/v1/reports/" + d.String() + ".csv")
		if err != nil {
			t.Fatal(err)
		}
		if cc := resp.Header.Get("Cache-Control"); cc == "" {
			t.Error("missing Cache-Control header")
		}
		if ct := resp.Header.Get("Content-Type"); ct != "text/csv; charset=utf-8" {
			t.Errorf("Content-Type = %q", ct)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		bodies = append(bodies, body)
	}
	if string(bodies[0]) != string(bodies[1]) {
		t.Fatal("cached response differs from first render")
	}
}

func TestErrorPaths(t *testing.T) {
	ts, c := testServer(t)
	cases := []struct {
		path string
		want int
	}{
		{"/v1/reports/2024-04-21", http.StatusNotFound}, // missing .csv
		{"/v1/reports/not-a-date.csv", http.StatusBadRequest},
		{"/v1/reports/2030-01-01.csv", http.StatusNotFound}, // out of range
		{"/v1/nope", http.StatusNotFound},
	}
	for _, tc := range cases {
		resp, err := ts.Client().Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s = %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
	// Client surfaces out-of-range as an error.
	if _, err := c.Report(context.Background(), dates.New(2030, 1, 1)); err == nil {
		t.Error("out-of-range fetch should fail")
	}
}

func TestClientContextCancellation(t *testing.T) {
	_, c := testServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Report(ctx, dates.New(2024, 4, 21)); err == nil {
		t.Error("cancelled context should fail the fetch")
	}
}

func TestConcurrentFetches(t *testing.T) {
	_, c := testServer(t)
	d := dates.New(2024, 5, 5)
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			_, err := c.Report(context.Background(), d)
			errs <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestSeriesEndpoint(t *testing.T) {
	ts, _ := testServer(t)
	// Find a real (cc, ASN) from a generated report.
	rep := testGen.Generate(dates.New(2024, 4, 10))
	row := rep.Rows[0]
	url := ts.URL + "/v1/series/AS" + itoa(row.ASN) + "?cc=" + row.CC + "&from=2024-04-08&to=2024-04-12"
	resp, err := ts.Client().Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var sr SeriesResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.ASN != row.ASN || sr.Country != row.CC {
		t.Fatalf("series identity = %+v", sr)
	}
	if len(sr.Points) != 5 {
		t.Fatalf("%d points, want 5", len(sr.Points))
	}
	for _, p := range sr.Points {
		if p.Users <= 0 || p.Samples <= 0 {
			t.Fatalf("degenerate point %+v", p)
		}
	}
}

func TestSeriesEndpointErrors(t *testing.T) {
	ts, _ := testServer(t)
	cases := []struct {
		path string
		want int
	}{
		{"/v1/series/1234?cc=FR", http.StatusNotFound},    // missing AS prefix
		{"/v1/series/ASxyz?cc=FR", http.StatusBadRequest}, // bad ASN
		{"/v1/series/AS1?cc=", http.StatusBadRequest},     // missing cc
		{"/v1/series/AS1?cc=FR&from=garbage", http.StatusBadRequest},
		{"/v1/series/AS1?cc=FR&step=0", http.StatusBadRequest},
		{"/v1/series/AS1?cc=FR", http.StatusBadRequest}, // full year: too many points
	}
	for _, tc := range cases {
		resp, err := ts.Client().Get(ts.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s = %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
}

func itoa(v uint32) string { return strconv.FormatUint(uint64(v), 10) }

// TestServerSingleflightHammer fires many concurrent requests at
// overlapping cold days — through the real HTTP handler — and verifies
// the apnic frame was generated exactly once per distinct day
// (singleflight at the registry), every
// response is served, and repeated days return byte-identical CSV.
func TestServerSingleflightHammer(t *testing.T) {
	srv := NewMultiServer(testW, 11, dates.New(2024, 1, 1), dates.New(2024, 12, 31), DefaultCacheDays)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	days := []string{"2024-03-01", "2024-03-02", "2024-03-03", "2024-03-04"}
	const goroutines = 32
	bodies := make([]map[string][]byte, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bodies[g] = map[string][]byte{}
			for i := 0; i < 3; i++ {
				for _, day := range days {
					resp, err := ts.Client().Get(ts.URL + "/v1/reports/" + day + ".csv")
					if err != nil {
						errs[g] = err
						return
					}
					b, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil {
						errs[g] = err
						return
					}
					if resp.StatusCode != http.StatusOK {
						errs[g] = fmt.Errorf("GET %s: %s", day, resp.Status)
						return
					}
					bodies[g][day] = b
				}
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}

	if st, _ := srv.Registry().FrameCacheStats("apnic"); int(st.Gens) != len(days) {
		t.Errorf("apnic frame generated %d times for %d distinct days; singleflight demands one each", st.Gens, len(days))
	} else if st.Len != len(days) {
		t.Errorf("frame cache holds %d apnic days, want %d", st.Len, len(days))
	}
	for g := 1; g < goroutines; g++ {
		for _, day := range days {
			if !bytes.Equal(bodies[g][day], bodies[0][day]) {
				t.Fatalf("goroutine %d saw different CSV bytes for %s", g, day)
			}
		}
	}
}

// TestServerRenderConcurrentDistinctDays drives render directly (below
// the HTTP layer) to confirm distinct cold days do not serialize on a
// global lock: total singleflight entries equal distinct days and each
// day's bytes are stable.
func TestServerRenderConcurrentDistinctDays(t *testing.T) {
	srv := NewMultiServer(testW, 11, dates.New(2024, 1, 1), dates.New(2024, 12, 31), DefaultCacheDays)
	days := make([]dates.Date, 8)
	for i := range days {
		days[i] = dates.New(2024, 6, 1+i)
	}
	var wg sync.WaitGroup
	out := make([][]byte, len(days))
	for i, d := range days {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, _, err := srv.render(d)
			if err != nil {
				t.Errorf("render(%v): %v", d, err)
				return
			}
			out[i] = b
		}()
	}
	wg.Wait()
	if st, _ := srv.Registry().FrameCacheStats("apnic"); int(st.Gens) != len(days) {
		t.Errorf("apnic frame generated %d times for %d distinct days", st.Gens, len(days))
	}
	for i, d := range days {
		again, _, err := srv.render(d)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out[i], again) {
			t.Errorf("day %v: cached render differs from first render", d)
		}
	}
}
