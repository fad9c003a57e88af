package loadgen

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apnic"
	"repro/internal/apnicweb"
	"repro/internal/dates"
	"repro/internal/itu"
	"repro/internal/obsv"
	"repro/internal/stream"
	"repro/internal/world"
)

var loadW = world.MustBuild(world.Config{Seed: 11})

// loadServer starts a full seven-dataset multi-server over a two-week
// window — narrow enough that the Zipf/recency model keeps the cache
// warm and a short burst finishes in test time.
func loadServer(t *testing.T) (*apnicweb.Server, *httptest.Server, ModelConfig) {
	t.Helper()
	first, last := dates.New(2024, 6, 1), dates.New(2024, 6, 14)
	srv := apnicweb.NewMultiServer(loadW, 11, first, last, 30)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	cfg := DefaultModel(first, last)
	cfg.HotDayHalfLife = 2
	cfg.CondFraction = 0.8

	// A real per-AS series path, keyed off the window's last frame.
	f, err := srv.Registry().Frame("apnic", last)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SeriesPaths = []string{
		"/v1/apnic/series/AS" + strconv.FormatInt(f.Col("AS").Ints[0], 10) +
			"?cc=" + f.Col("CC").Strs[0] +
			"&from=" + first.String() + "&to=" + first.AddDays(4).String(),
	}
	return srv, ts, cfg
}

// TestClosedLoopBurst is the e2e load satellite: a short closed-loop
// burst with herds against the real handler stack must finish with zero
// errors, byte-identical repeated bodies (VerifyBodies), revalidations
// actually hitting 304, and sane per-route quantiles.
func TestClosedLoopBurst(t *testing.T) {
	srv, ts, model := loadServer(t)
	metrics := obsv.NewRegistry()
	res, err := Run(context.Background(), Config{
		BaseURL:      ts.URL,
		Model:        model,
		Seed:         11,
		Mode:         Closed,
		Concurrency:  8,
		Requests:     400,
		HerdEvery:    100,
		HerdSize:     8,
		VerifyBodies: true,
		Metrics:      metrics,
		Client:       ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}

	if res.Errors != 0 {
		t.Errorf("%d errors in a clean burst", res.Errors)
	}
	if res.Requests < 400 {
		t.Errorf("only %d requests completed, want >= 400", res.Requests)
	}
	if res.Herds != 4 {
		t.Errorf("herds = %d, want 4 (400 dispatches / HerdEvery 100)", res.Herds)
	}
	if res.Throughput <= 0 {
		t.Errorf("throughput %v", res.Throughput)
	}

	var notModified, mismatches int64
	seen := map[string]bool{}
	for _, rs := range res.Routes {
		seen[rs.Route] = true
		notModified += rs.NotModified
		mismatches += rs.Mismatches
		if rs.Requests == 0 {
			t.Errorf("route %s recorded no requests", rs.Route)
		}
		if rs.Errors != 0 {
			t.Errorf("route %s: %d errors", rs.Route, rs.Errors)
		}
		if rs.P50 < 0 || rs.P99 < rs.P50 || rs.P999 < rs.P99 {
			t.Errorf("route %s quantiles not monotone: %+v", rs.Route, rs)
		}
	}
	for _, route := range []string{RouteReportBinz, RouteReportBin, RouteReportCSV, RouteReportJSON, RouteLegacyCSV, RouteDates, RouteSeries, RouteHerd} {
		if !seen[route] {
			t.Errorf("route %s missing from a 400-request burst", route)
		}
	}
	if mismatches != 0 {
		t.Errorf("%d body mismatches; responses must be byte-identical per path+encoding", mismatches)
	}
	if notModified == 0 {
		t.Error("no 304s despite CondFraction 0.8; conditional replays are not revalidating")
	}
	// The runner's 304 count and the server's must agree.
	if got := srv.Metrics().Counter("apnicweb_not_modified_total").Value(); got != notModified {
		t.Errorf("server saw %d 304s, runner recorded %d", got, notModified)
	}
	if h := metrics.Histogram(obsv.Label("loadgen_request_seconds", "route", RouteReportCSV), nil); h.Count() == 0 {
		t.Error("latency histogram empty; metrics plumbing broken")
	}
}

// TestOpenLoopSchedule: the open loop dispatches on its own clock and
// finishes near the configured rate x duration, again with zero errors.
func TestOpenLoopSchedule(t *testing.T) {
	_, ts, model := loadServer(t)
	res, err := Run(context.Background(), Config{
		BaseURL:     ts.URL,
		Model:       model,
		Seed:        23,
		Mode:        Open,
		Concurrency: 8,
		Rate:        200,
		Duration:    700 * time.Millisecond,
		Client:      ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Errorf("%d errors", res.Errors)
	}
	// The schedule wants ~140 dispatches. Completion depends on server
	// speed (cold caches under -race answer slowly, and in-flight work is
	// abandoned at the deadline — that's the open-loop contract), so pin
	// the dispatch clock, not the completions, and only at an
	// order-of-magnitude floor for loaded CI machines.
	if res.Dispatched < 20 {
		t.Errorf("only %d dispatches in 700ms at 200/s", res.Dispatched)
	}
	if res.Requests < 1 {
		t.Error("no requests completed")
	}
	if res.Mode != Open || res.RateHz != 200 {
		t.Errorf("run identity %+v", res)
	}
}

// TestRunValidation: impossible configs fail fast instead of hanging.
func TestRunValidation(t *testing.T) {
	_, _, model := loadServer(t)
	bad := []Config{
		{BaseURL: "x", Model: model, Concurrency: 0, Requests: 1},
		{BaseURL: "x", Model: model, Concurrency: 1},                          // no budget
		{BaseURL: "x", Model: model, Concurrency: 1, Requests: 1, Mode: Open}, // no rate
		{BaseURL: "x", Model: ModelConfig{}, Concurrency: 1, Requests: 1},     // bad model
	}
	for i, cfg := range bad {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestClosedLoopContextCancel: cancelling the context stops an
// unbounded-requests run promptly.
func TestClosedLoopContextCancel(t *testing.T) {
	_, ts, model := loadServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var res *RunResult
	go func() {
		defer close(done)
		res, _ = Run(ctx, Config{
			BaseURL:     ts.URL,
			Model:       model,
			Seed:        5,
			Mode:        Closed,
			Concurrency: 4,
			Duration:    time.Hour, // budget that would outlive the test
			Client:      ts.Client(),
		})
	}()
	time.Sleep(150 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("run did not stop after cancel")
	}
	// Completions depend on server speed (in-flight work at cancel is
	// abandoned, unrecorded); the stable invariants are that the run
	// returned a ledger and its workers had started dispatching.
	if res == nil || res.Dispatched == 0 {
		t.Fatalf("cancelled run returned %+v", res)
	}
}

// TestOpenLoopShedAccounting is the regression test for the shed
// ledger: wedge the server so the open-loop queue fills, and pin the
// coordinated-omission invariants —
//
//   - sheds land in the per-route request counts (the intended-start
//     denominator), each with a latency sample;
//   - sum of per-route Shed equals RunResult.Dropped;
//   - sheds are never counted as errors;
//   - completions + sheds reconcile with the recorded request total.
func TestOpenLoopShedAccounting(t *testing.T) {
	var served atomic.Int64
	gate := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-gate // every request wedges until the schedule has finished
		served.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	// One worker, queue capacity Concurrency*4 = 4: the worker wedges on
	// its first request, the queue fills within a handful of ticks, and
	// the remaining dispatches of the 200-tick schedule (100ms at
	// 2000/s) shed. The gate opens well after the schedule has drained;
	// every invariant below holds regardless of where the release lands,
	// the timing margin only maximizes the shed count.
	const budget = 200
	go func() {
		time.Sleep(500 * time.Millisecond)
		close(gate)
	}()

	model := DefaultModel(dates.New(2024, 4, 1), dates.New(2024, 4, 14))
	res, err := Run(context.Background(), Config{
		BaseURL:     ts.URL,
		Model:       model,
		Seed:        31,
		Mode:        Open,
		Concurrency: 1,
		Requests:    budget,
		Rate:        2000,
		Client:      ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}

	if res.Dropped == 0 {
		t.Fatal("no sheds despite a wedged single worker and a 4-slot queue")
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors; sheds must never be double-counted as errors", res.Errors)
	}
	var shed, reqs, errs int64
	for _, rt := range res.Routes {
		shed += rt.Shed
		reqs += rt.Requests
		errs += rt.Errors
		if rt.Shed > rt.Requests {
			t.Fatalf("route %s: Shed %d > Requests %d", rt.Route, rt.Shed, rt.Requests)
		}
	}
	if shed != res.Dropped {
		t.Fatalf("per-route Shed sums to %d, RunResult.Dropped is %d", shed, res.Dropped)
	}
	if errs != 0 {
		t.Fatalf("route ledgers carry %d errors", errs)
	}
	if reqs != res.Requests {
		t.Fatalf("route requests sum to %d, RunResult.Requests is %d", reqs, res.Requests)
	}
	// Completions + sheds == recorded requests: nothing lost, nothing
	// double-counted. (In-flight/queued dispatches at close are neither.)
	if completed := res.Requests - res.Dropped; completed != served.Load() {
		t.Fatalf("ledger says %d completions, server answered %d", completed, served.Load())
	}
}

// TestLiveRouteTolerates503 checks the live-poll share against a server
// with no live stream attached: every live request 503s by contract and
// none of them may count as an error.
func TestLiveRouteTolerates503(t *testing.T) {
	_, ts, model := loadServer(t)
	model.LiveCountries = []string{"FR", "DE"}
	res, err := Run(context.Background(), Config{
		BaseURL:      ts.URL,
		Model:        model,
		Seed:         11,
		Mode:         Closed,
		Concurrency:  4,
		Requests:     300,
		VerifyBodies: true,
		Client:       ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, rt := range res.Routes {
		if rt.Route != RouteLive {
			continue
		}
		found = true
		if rt.Requests == 0 {
			t.Fatal("live share produced no requests")
		}
		if rt.Errors != 0 {
			t.Fatalf("%d live errors; contract 503s must be tolerated", rt.Errors)
		}
	}
	if !found {
		t.Fatal("no live route in the ledger")
	}
}

// TestLiveRouteServes checks the live share against an attached, primed
// estimator: 200s flow, conditional polls revalidate to 304, and the
// mutable body never trips the immutability verifier.
func TestLiveRouteServes(t *testing.T) {
	srv, ts, model := loadServer(t)
	gen := apnic.New(loadW, itu.New(loadW, 11), 11)
	est := stream.NewRollingEstimator(gen)
	last := model.Last
	for _, c := range gen.DayCounts(last) {
		est.Observe(stream.Impression{Day: last, CC: c.CC, ASN: c.ASN, Weight: c.Samples})
	}
	srv.SetLive(est)

	model.LiveCountries = []string{"FR", "DE", "US"}
	model.CondFraction = 1 // every repeat is conditional: force the 304 path
	res, err := Run(context.Background(), Config{
		BaseURL:      ts.URL,
		Model:        model,
		Seed:         11,
		Mode:         Closed,
		Concurrency:  4,
		Requests:     400,
		VerifyBodies: true,
		Client:       ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range res.Routes {
		if rt.Route != RouteLive {
			continue
		}
		if rt.Requests == 0 {
			t.Fatal("live share produced no requests")
		}
		if rt.Errors != 0 || rt.Mismatches != 0 {
			t.Fatalf("live errors=%d mismatches=%d on a conforming server", rt.Errors, rt.Mismatches)
		}
		if rt.NotModified == 0 {
			t.Fatal("no 304s despite a quiet estimator and conditional polls")
		}
		return
	}
	t.Fatal("no live route in the ledger")
}

// TestLiveRevisionETagViolation drives the runner against a server that
// breaks the revision-ETag contract — a 200 re-sending the exact tag the
// client presented in If-None-Match — and expects a mismatch, since equal
// tags promise equal bytes and the correct answer was 304.
func TestLiveRevisionETagViolation(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", `"live-FR-100-1"`)
		w.Write([]byte(`{"cc":"FR"}`))
	}))
	t.Cleanup(bad.Close)

	r := &runner{cfg: Config{BaseURL: bad.URL, VerifyBodies: true}, client: bad.Client(), recs: map[string]*recorder{}}
	plan := Request{Route: RouteLive, Path: "/v1/live/FR", Conditional: true}
	r.do(context.Background(), plan, time.Now()) // primes the ETag cache
	r.do(context.Background(), plan, time.Now()) // conditional; 200 + same tag = violation

	st := r.recs[RouteLive].finalize()
	if st.Mismatches != 1 {
		t.Fatalf("mismatches = %d, want 1", st.Mismatches)
	}
	if st.Errors != 1 {
		t.Fatalf("errors = %d, want the violating response counted once", st.Errors)
	}
}
