package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apnicweb"
	"repro/internal/dates"
	"repro/internal/loadgen"
	"repro/internal/world"
)

// The served window of every serving workload: the paper's 2024.
var (
	windowFirst = dates.New(2024, 1, 1)
	windowLast  = dates.New(2024, 12, 31)
)

// serveEnv is one in-process server on a loopback listener.
type serveEnv struct {
	seed    uint64
	w       *world.World
	srv     *apnicweb.Server
	handler *tracedHandler // nil when untraced
	base    string
	hs      *http.Server
	served  chan error
}

// startServer builds a world and a multi-dataset server over it and
// serves it on 127.0.0.1. It returns the time the world build took.
func startServer(seed uint64, cacheDays int, tr *Tracer) (*serveEnv, time.Duration, error) {
	t0 := time.Now()
	w, err := world.Build(world.Config{Seed: seed})
	if err != nil {
		return nil, 0, err
	}
	build := time.Since(t0)
	srv := apnicweb.NewMultiServer(w, seed, windowFirst, windowLast, cacheDays)
	env := &serveEnv{seed: seed, w: w, srv: srv, served: make(chan error, 1)}
	var h http.Handler = srv.Handler()
	if tr != nil {
		env.handler = &tracedHandler{next: h, tr: tr}
		h = env.handler
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	env.base = "http://" + ln.Addr().String()
	env.hs = &http.Server{Handler: h}
	go func() { env.served <- env.hs.Serve(ln) }()
	return env, build, nil
}

// stop shuts the server down and waits for its serve loop to end.
func (e *serveEnv) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// counters reads the server's own metrics registry into a flat map.
func (e *serveEnv) counters() (map[string]float64, error) {
	var buf bytes.Buffer
	if err := e.srv.Metrics().WriteJSON(&buf); err != nil {
		return nil, err
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(raw))
	for k, v := range raw {
		var f float64
		if json.Unmarshal(v, &f) == nil { // histograms are objects; skip them
			out[k] = f
		}
	}
	return out, nil
}

// sumSeries adds every series whose base name (before any label set)
// has the given prefix and suffix.
func sumSeries(m map[string]float64, prefix, suffix string) float64 {
	var s float64
	for k, v := range m {
		base, _, _ := strings.Cut(k, "{")
		if strings.HasPrefix(base, prefix) && strings.HasSuffix(base, suffix) {
			s += v
		}
	}
	return s
}

// routeOf classifies a request path with the loadgen route vocabulary.
func routeOf(path string) string {
	p, _, _ := strings.Cut(path, "?")
	switch {
	case strings.HasPrefix(p, "/v1/live/"):
		return loadgen.RouteLive
	case strings.HasPrefix(p, "/v1/series/"):
		return loadgen.RouteSeries
	case strings.HasPrefix(p, "/v1/reports/"):
		return loadgen.RouteLegacyCSV
	case strings.HasSuffix(p, "/dates"):
		return loadgen.RouteDates
	case strings.HasSuffix(p, ".binz"):
		return loadgen.RouteReportBinz
	case strings.HasSuffix(p, ".bin"):
		return loadgen.RouteReportBin
	case strings.HasSuffix(p, ".csv"):
		return loadgen.RouteReportCSV
	case strings.Contains(p, "/reports/"):
		return loadgen.RouteReportJSON
	}
	return "other"
}

// handlerClasses are the (route, outcome) pairs the traced handler
// reports percentiles for: outcome is the served encoding or 304.
var handlerClasses = []string{
	"report-csv.identity", "report-csv.gzip", "report-csv.304",
	"report-json.identity", "report-json.gzip", "report-json.304",
	"report-bin.identity", "report-bin.gzip", "report-bin.304",
	"report-binz.identity", "report-binz.304",
	"legacy-csv.identity", "legacy-csv.gzip", "legacy-csv.304",
	"dates.identity", "series.identity",
	"live.identity", "live.304",
}

// handlerRec is one request as the traced handler saw it.
type handlerRec struct {
	rid   uint64
	class string
	dur   time.Duration
	bytes int64
}

// tracedHandler wraps Server.Handler: one span per request, parented to
// the client span named by the request-ID header, plus the bytes written.
type tracedHandler struct {
	next http.Handler
	tr   *Tracer
	// live is the span ID of the live request in flight. The live
	// workload polls from a single client, so at most one is open and
	// the LiveSource wrapper can parent its snapshot span to it.
	live atomic.Uint64

	mu   sync.Mutex
	recs []handlerRec
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rid, _ := strconv.ParseUint(r.Header.Get(requestIDHeader), 10, 64)
	id := h.tr.NewID()
	route := routeOf(r.URL.RequestURI())
	if route == loadgen.RouteLive {
		h.live.Store(id)
	}
	cw := &countingWriter{ResponseWriter: w}
	start := h.tr.Now()
	// Deferred so a streamed body that aborts the connection (by panic)
	// is still recorded.
	defer func() {
		end := h.tr.Now()
		outcome := "identity"
		switch {
		case cw.status == http.StatusNotModified:
			outcome = "304"
		case cw.Header().Get("Content-Encoding") == "gzip":
			outcome = "gzip"
		}
		class := route + "." + outcome
		h.tr.Record(Span{ID: id, Parent: rid, Trace: rid, Layer: "apnicweb", Name: class, Start: start, End: end})
		h.mu.Lock()
		h.recs = append(h.recs, handlerRec{rid: rid, class: class, dur: time.Duration(end - start), bytes: cw.n})
		h.mu.Unlock()
	}()
	h.next.ServeHTTP(cw, r)
}

// take returns the requests seen so far and forgets them.
func (h *tracedHandler) take() []handlerRec {
	h.mu.Lock()
	defer h.mu.Unlock()
	recs := h.recs
	h.recs = nil
	return recs
}

type countingWriter struct {
	http.ResponseWriter
	status int
	n      int64
}

func (w *countingWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// serverLayers fills the per-layer metrics read from the server: the
// traced handler's per-class latencies and bytes, the transport share of
// client latency, and the cache counters of the server's registry
// (deltas from before to after the timed phase).
func serverLayers(res *Result, before, after map[string]float64, recs []handlerRec, spans []Span) {
	byClass := map[string][]float64{}
	handlerByRID := map[uint64]time.Duration{}
	var bytesOut int64
	for _, r := range recs {
		byClass[r.class] = append(byClass[r.class], r.dur.Seconds())
		handlerByRID[r.rid] = r.dur
		bytesOut += r.bytes
	}
	for _, class := range handlerClasses {
		d := summarize(byClass[class])
		res.Layer["apnicweb.handler_p50_s."+class] = d.P50
		res.Layer["apnicweb.handler_p99_s."+class] = d.P99
	}
	var transport []float64
	for _, s := range spans {
		if s.Layer != "client" {
			continue
		}
		if hd, ok := handlerByRID[s.ID]; ok {
			transport = append(transport, (s.Dur() - hd).Seconds())
		}
	}
	res.Layer["apnicweb.transport_s"] = summarize(transport).P50
	res.Layer["apnicweb.bytes_out"] = float64(bytesOut)

	delta := func(prefix, suffix string) float64 {
		return sumSeries(after, prefix, suffix) - sumSeries(before, prefix, suffix)
	}
	requests := float64(len(recs))
	res.Layer["apnicweb.not_modified_ratio"] = ratio(delta("apnicweb_not_modified_total", ""), requests)
	// Every gzip fill adds one entry to the gzip LRU and entries leave
	// only by eviction, so fills = growth in resident entries + evictions.
	fills := delta("apnicweb_gzip_cache_days", "") + delta("apnicweb_gzip_cache_evictions", "")
	gz := after[`apnicweb_responses_total{encoding="gzip"}`] - before[`apnicweb_responses_total{encoding="gzip"}`]
	res.Layer["apnicweb.gzip_hit_ratio"] = ratio(gz-fills, gz)
	for _, layer := range []string{"frame", "bin", "binz"} {
		p := "source_" + layer + "_cache_"
		res.Layer["source."+layer+"_hit_ratio"] = ratio(delta(p+"hits", ""), delta(p+"hits", "")+delta(p+"misses", ""))
	}
	res.Layer["source.generations"] = delta("source_frame_generations_total", "")
	res.Layer["syncx.evictions"] = delta("", "_cache_evictions")
	res.Layer["syncx.resident_days"] = sumSeries(after, "", "_cache_days")
}

// runtimeDelta captures the runtime counters the per-layer view reports.
type runtimeDelta struct {
	gc                         uint32
	pause, mallocs, allocBytes uint64
}

func readRuntime() runtimeDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeDelta{gc: ms.NumGC, pause: ms.PauseTotalNs, mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc}
}

// allocTotals sums the heap allocations of measured phases and the
// operations they ran.
type allocTotals struct {
	bytes, objects uint64
	ops            int64
}

// add counts the allocations between two readings and ops operations.
func (a *allocTotals) add(before, after runtimeDelta, ops int64) {
	a.bytes += after.allocBytes - before.allocBytes
	a.objects += after.mallocs - before.mallocs
	a.ops += ops
}

// report sets alloc_bytes_per_op and allocs_per_op.
func (a allocTotals) report(res *Result) {
	res.E2E["alloc_bytes_per_op"] = ratio(float64(a.bytes), float64(a.ops))
	res.E2E["allocs_per_op"] = ratio(float64(a.objects), float64(a.ops))
}

func runtimeLayers(res *Result, before, after runtimeDelta) {
	res.Layer["runtime.gc_cycles"] = float64(after.gc - before.gc)
	res.Layer["runtime.gc_pause_s"] = float64(after.pause-before.pause) / 1e9
	res.Layer["runtime.mallocs"] = float64(after.mallocs - before.mallocs)
}

// liveHeapEvery is how often sampleLiveHeap reads the live heap.
const liveHeapEvery = 250 * time.Millisecond

// sampleLiveHeap reads the live heap (the bytes the latest collection
// marked) every liveHeapEvery until stop is called, which returns the
// median sample. It forces no collection.
func sampleLiveHeap() (stop func() float64) {
	done := make(chan struct{})
	out := make(chan float64, 1)
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		read := func() float64 {
			metrics.Read(sample)
			return float64(sample[0].Value.Uint64())
		}
		tick := time.NewTicker(liveHeapEvery)
		defer tick.Stop()
		xs := []float64{read()}
		for {
			select {
			case <-done:
				out <- median(append(xs, read()))
				return
			case <-tick.C:
				xs = append(xs, read())
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-out
	}
}

// heapAfterGC is HeapAlloc after a forced collection.
func heapAfterGC() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}
