package apnicweb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dates"
	"repro/internal/obsv"
	"repro/internal/source"
)

func newLogger(w io.Writer) *log.Logger { return log.New(w, "", 0) }

// TestSeriesFromAfterTo is the regression for the silently-empty-series
// bug: from > to used to return 200 with zero points, indistinguishable
// from a missing AS. It must be a 400.
func TestSeriesFromAfterTo(t *testing.T) {
	ts, _ := testServer(t)
	cases := []string{
		"/v1/series/AS1?cc=FR&from=2024-04-12&to=2024-04-08", // inverted
		"/v1/series/AS1?cc=FR&from=2030-01-01&to=2030-01-05", // entirely after the range
		"/v1/series/AS1?cc=FR&from=2001-01-01&to=2001-01-05", // entirely before the range
	}
	for _, path := range cases {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s = %d (%q), want 400", path, resp.StatusCode, body)
		}
	}
}

// TestRenderErrorPropagates is the regression for the swallowed WriteCSV
// error: the 500 body must carry the underlying message, the error must
// be cached (same message on repeat, underlying render ran once), and the
// render-error counter must count both requests.
func TestRenderErrorPropagates(t *testing.T) {
	srv := NewMultiServer(testW, 11, dates.New(2024, 1, 1), dates.New(2024, 12, 31), DefaultCacheDays)
	var renders atomic.Int64
	srv.legacy.stream = func(f *source.Frame, w io.Writer) error {
		renders.Add(1)
		return errors.New("disk on fire")
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var bodies []string
	for i := 0; i < 2; i++ {
		resp, err := ts.Client().Get(ts.URL + "/v1/reports/2024-06-01.csv")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d, want 500", i, resp.StatusCode)
		}
		bodies = append(bodies, string(body))
	}
	if !strings.Contains(bodies[0], "disk on fire") {
		t.Errorf("500 body %q does not carry the underlying error", bodies[0])
	}
	if bodies[0] != bodies[1] {
		t.Errorf("cached error day changed message between requests:\n%q\n%q", bodies[0], bodies[1])
	}
	if n := renders.Load(); n != 1 {
		t.Errorf("render ran %d times; error days must cache like success days", n)
	}
	if n := srv.Metrics().Counter("apnicweb_render_errors_total").Value(); n != 2 {
		t.Errorf("render-error counter = %d, want 2 (one per failed request)", n)
	}
}

// drainTransport wraps a RoundTripper and records, per response, how
// many body bytes the caller read before Close.
type drainTransport struct {
	base   http.RoundTripper
	mu     sync.Mutex
	closed []*drainBody
}

type drainBody struct {
	io.ReadCloser
	read   int64
	sawEOF bool
	closed bool
}

func (b *drainBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.read += int64(n)
	if err == io.EOF {
		b.sawEOF = true
	}
	return n, err
}

func (b *drainBody) Close() error {
	b.closed = true
	return b.ReadCloser.Close()
}

func (d *drainTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := d.base.RoundTrip(req)
	if resp != nil {
		body := &drainBody{ReadCloser: resp.Body}
		resp.Body = body
		d.mu.Lock()
		d.closed = append(d.closed, body)
		d.mu.Unlock()
	}
	return resp, err
}

// TestClientDrainsErrorBody is the regression for the keep-alive leak:
// on a non-200 the client used to Close the body with zero bytes read,
// so the connection could never be reused. It must now read the full
// (bounded) error body before closing, and surface a snippet of it in
// the error.
func TestClientDrainsErrorBody(t *testing.T) {
	ts, _ := testServer(t)
	dt := &drainTransport{base: ts.Client().Transport}
	c := &Client{BaseURL: ts.URL, HTTPClient: &http.Client{Transport: dt}}

	_, err := c.Report(context.Background(), dates.New(2030, 1, 1)) // out of range: 404
	if err == nil {
		t.Fatal("out-of-range fetch should fail")
	}
	if !strings.Contains(err.Error(), "date out of served range") {
		t.Errorf("error %q does not surface the server's body", err)
	}
	dt.mu.Lock()
	defer dt.mu.Unlock()
	if len(dt.closed) != 1 {
		t.Fatalf("%d responses recorded, want 1", len(dt.closed))
	}
	b := dt.closed[0]
	if !b.closed {
		t.Error("body never closed")
	}
	if b.read < int64(len("date out of served range")) {
		t.Errorf("only %d body bytes read before close; error body was left undrained", b.read)
	}
}

// TestClientCapsErrorBody: a hostile/huge error body must not be read
// past the drain bound.
func TestClientCapsErrorBody(t *testing.T) {
	huge := strings.Repeat("x", 4<<20)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound) // 404: not retried
		io.WriteString(w, huge)
	}))
	defer backend.Close()

	dt := &drainTransport{base: backend.Client().Transport}
	c := &Client{BaseURL: backend.URL, HTTPClient: &http.Client{Transport: dt}}
	_, err := c.Report(context.Background(), dates.New(2024, 1, 1))
	if err == nil {
		t.Fatal("want error")
	}
	if len(err.Error()) > errBodyLimit+256 {
		t.Errorf("error message is %d bytes; snippet cap failed", len(err.Error()))
	}
	dt.mu.Lock()
	defer dt.mu.Unlock()
	if got, max := dt.closed[0].read, int64(errBodyLimit+errDrainLimit+1); got > max {
		t.Errorf("read %d bytes of a hostile error body, cap is %d", got, max)
	}
}

// TestClientDrainsDatesBody: the success path of Dates must also leave
// no unread bytes (the JSON encoder's trailing newline) behind.
func TestClientDrainsDatesBody(t *testing.T) {
	ts, _ := testServer(t)
	dt := &drainTransport{base: ts.Client().Transport}
	c := &Client{BaseURL: ts.URL, HTTPClient: &http.Client{Transport: dt}}
	if _, _, err := c.Dates(context.Background()); err != nil {
		t.Fatal(err)
	}
	dt.mu.Lock()
	defer dt.mu.Unlock()
	b := dt.closed[0]
	if !b.closed {
		t.Error("body never closed")
	}
	if !b.sawEOF {
		t.Error("Dates closed the body without reading to EOF; connection cannot be reused")
	}
}

// TestClientRetriesFlakyBackend puts a fault-injecting proxy in front of
// a real server: the first two attempts get 503, the third succeeds. The
// client must recover transparently and surface attempt counts in its
// metrics and a retry line in its logs.
func TestClientRetriesFlakyBackend(t *testing.T) {
	srv := NewMultiServer(testW, 11, dates.New(2024, 1, 1), dates.New(2024, 12, 31), DefaultCacheDays)
	inner := srv.Handler()
	var calls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "backend restarting", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	reg := obsv.NewRegistry()
	var logBuf strings.Builder
	c := &Client{
		BaseURL:    flaky.URL,
		HTTPClient: flaky.Client(),
		Retry:      obsv.RetryPolicy{MaxAttempts: 4, BaseDelay: 1}, // 1ns: fast test
		Metrics:    reg,
		Log:        newLogger(&logBuf),
	}
	rep, err := c.Report(context.Background(), dates.New(2024, 4, 21))
	if err != nil {
		t.Fatalf("client did not recover from flaky backend: %v", err)
	}
	if len(rep.Rows) == 0 {
		t.Fatal("empty report after recovery")
	}
	if got := reg.Counter("httpclient_attempts_total").Value(); got != 3 {
		t.Errorf("attempts metric = %d, want 3", got)
	}
	if got := reg.Counter(`httpclient_retries_total{reason="status"}`).Value(); got != 2 {
		t.Errorf("retries metric = %d, want 2", got)
	}
	if !strings.Contains(logBuf.String(), "httpclient retry attempt=2/4") {
		t.Errorf("no retry log line:\n%s", logBuf.String())
	}
}

// TestSeriesColdDayHammer fires many concurrent series requests over
// overlapping cold days through the real handler and verifies each
// apnic frame was generated exactly once per distinct day.
func TestSeriesColdDayHammer(t *testing.T) {
	srv := NewMultiServer(testW, 11, dates.New(2024, 1, 1), dates.New(2024, 12, 31), DefaultCacheDays)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rep := testGen.Generate(dates.New(2024, 7, 1))
	row := rep.Rows[0]
	const days = 4 // 2024-07-01 .. 2024-07-04
	url := fmt.Sprintf("%s/v1/series/AS%d?cc=%s&from=2024-07-01&to=2024-07-0%d", ts.URL, row.ASN, row.CC, days)

	const goroutines = 24
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				resp, err := ts.Client().Get(url)
				if err != nil {
					errs[g] = err
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs[g] = fmt.Errorf("status %d: %s", resp.StatusCode, body)
					return
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
	if st, _ := srv.Registry().FrameCacheStats("apnic"); st.Gens != days {
		t.Errorf("apnic frame generated %d times for %d distinct days under series load", st.Gens, days)
	}
}

// TestMetricsEndpoint drives a few requests and checks /metrics exposes
// per-route counters, latency histograms, and the cache gauges, in both
// formats.
func TestMetricsEndpoint(t *testing.T) {
	ts, c := testServer(t)
	if _, err := c.Report(context.Background(), dates.New(2024, 2, 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Report(context.Background(), dates.New(2024, 2, 2)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Dates(context.Background()); err != nil {
		t.Fatal(err)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`http_requests_total{route="/v1/reports/:date",class="2xx"} 2`,
		`http_requests_total{route="/v1/dates",class="2xx"} 1`,
		`http_request_seconds_bucket{route="/v1/reports/:date",le="+Inf"} 2`,
		`source_frame_generations_total{dataset="apnic"} 1`,
		`source_frame_cache_days{dataset="apnic"} 1`,
		"apnicweb_render_errors_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}

	resp, err = ts.Client().Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	jsonBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("json format Content-Type = %q", ct)
	}
	if !strings.Contains(string(jsonBody), `"source_frame_generations_total{dataset=\"apnic\"}": 1`) {
		t.Errorf("json metrics missing generation counter:\n%s", jsonBody)
	}
}
