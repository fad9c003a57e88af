// Package apnicweb serves and fetches the simulated datasets over HTTP.
// Historically it published only the APNIC per-AS reports, mirroring
// stats.labs.apnic.net; it now serves every dataset registered in a
// source.Registry under generic routes, with the original APNIC routes
// kept as byte-identical compatibility aliases.
//
// Generic endpoints (one family per registered dataset):
//
//	GET /v1/{dataset}/dates                    served range + cadence, JSON
//	GET /v1/{dataset}/reports/{date}.csv       one day's frame as CSV
//	GET /v1/{dataset}/reports/{date}           one day's frame as JSON
//	GET /v1/{dataset}/reports/{date}.bin       ... as the binary columnar codec
//	GET /v1/{dataset}/reports/{date}.binz      ... as the compressed binary codec
//	    (one row each of the representation table, see repr.go)
//	GET /v1/{dataset}/series/{key}?cc=XX&from=&to=&step=   per-row series, JSON
//
// Legacy APNIC aliases (responses byte-identical to the APNIC-only server):
//
//	GET /v1/reports/{date}                     <YYYY-MM-DD>.csv, native CSV
//	GET /v1/dates                              served date range, JSON
//	GET /v1/series/{asn}?cc=XX&from=&to=&step= per-AS time series, JSON
//	    (the footnote-2 per-ASN view of stats.labs.apnic.net)
//
// Plus:
//
//	GET /v1/live/{country}                     rolling streaming estimate, JSON (see live.go)
//	GET /metrics                               Prometheus text (?format=json for JSON)
//	GET /healthz                               liveness probe
//
// Every route is wrapped in the obsv middleware with a bounded per-route
// (and per-dataset) label, so request counts, status classes, and latency
// histograms appear on /metrics alongside the cache and render-error
// series. Errors on generic routes carry a JSON body; legacy routes keep
// their original plain-text errors.
//
// Report routes exploit day immutability (every dataset-day is a pure
// function of (seed, date)): responses carry strong ETags derived from
// the frame content hash, If-None-Match revalidation answers 304 without
// rendering, Accept-Encoding negotiates gzip bodies out of a bounded
// pre-compressed hot-day cache, and identity CSV/JSON bodies stream
// row-by-row without materializing the rendered report. See
// conditional.go and serveImmutable.
package apnicweb

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/apnic"
	"repro/internal/dates"
	"repro/internal/obsv"
	"repro/internal/source"
	"repro/internal/source/bundle"
	"repro/internal/syncx"
	"repro/internal/world"
)

// Server serves generated reports for a date range.
//
// Day artifacts are cached with per-day singleflight entries: concurrent
// requests for the same day share one generation, requests for distinct
// days generate in parallel. (The old coarse-mutex version could either
// serialize the whole request path or, when naively double-checked,
// generate the same day twice under load.)
//
// The caches are bounded LRUs (NewMultiServer sets the capacity): a
// scan over a multi-year range no longer pins every day's report, CSV,
// and row index in memory forever. Eviction is safe
// because every artifact is a pure function of (seed, date) — an evicted
// day regenerates byte-identically on the next request.
type Server struct {
	reg      *source.Registry
	apnicSrc *apnic.Source // legacy alias routes need the native reports
	first    dates.Date
	last     dates.Date

	// Log, when non-nil, receives structured request logs and render
	// failures. Set it before calling Handler.
	Log *log.Logger

	metrics  *obsv.Registry
	writeCSV func(*apnic.Report, io.Writer) error // seam for render-failure tests

	// reprs is the server's own copy of the representation table (see
	// repr.go), so tests can swap a row's stream on one server.
	reprs   []repr
	encoded encodedBodies // memoized bytes of the encoded rows

	csv   *syncx.LRU[dates.Date, csvDay]              // legacy APNIC CSV per day
	index *syncx.LRU[dates.Date, map[seriesKey]int32] // (ASN, CC) → row position per day
	etags *syncx.LRU[frameKey, string]                // frame content hash per (dataset, day)
	gzips *syncx.LRU[gzKey, csvDay]                   // pre-compressed hot-day bodies

	renderErrs   *obsv.Counter
	streamAborts *obsv.Counter
	notModified  *obsv.Counter
	encGzip      *obsv.Counter
	encIdentity  *obsv.Counter

	// liveState holds the optional streaming estimator behind
	// /v1/live/{country}; see live.go and SetLive.
	liveState
}

// DefaultCacheDays is the usual day-cache capacity: a year of reports,
// which covers the serving window while keeping a multi-year scan from
// growing the process without limit.
const DefaultCacheDays = 365

type csvDay struct {
	body []byte
	etag string // content hash of the identity body (legacy cache only)
	err  error
}

// frameKey identifies one dataset-day artifact in the generic caches.
type frameKey struct {
	dataset string
	day     int // dates.Date.DayNumber()
}

// gzKey identifies one pre-compressed representation: the repr name
// distinguishes codecs ("csv", "json", "bin", "legacy") because the same
// dataset-day compresses to different bytes under each.
type gzKey struct {
	repr    string
	dataset string
	day     int
}

// seriesKey identifies one row of a day's report: the paper's
// per-(country, AS) series identity.
type seriesKey struct {
	asn uint32
	cc  string
}

// NewMultiServer builds the full seven-dataset roster over one world and
// serves every dataset under /v1/{dataset}/..., with the legacy APNIC
// routes aliasing the "apnic" dataset. Each day cache holds at most
// cacheDays days per dataset (the server's own caches clamp cacheDays
// < 1 to 1), evicting least recently used days.
func NewMultiServer(w *world.World, seed uint64, first, last dates.Date, cacheDays int) *Server {
	metrics := obsv.NewRegistry()
	b := bundle.New(w, seed, bundle.Config{Metrics: metrics, CacheDays: cacheDays})
	reg := b.Registry
	if cacheDays < 1 {
		cacheDays = 1
	}
	rosterCap := cacheDays * max(1, len(reg.Names()))
	table := slices.Clone(reprs)
	s := &Server{
		reg:      reg,
		apnicSrc: b.APNIC,
		first:    first,
		last:     last,
		metrics:  metrics,
		writeCSV: (*apnic.Report).WriteCSV,
		reprs:    table,
		encoded:  newEncodedBodies(table, reg, metrics),
		csv:      syncx.NewLRU[dates.Date, csvDay](cacheDays),
		index:    syncx.NewLRU[dates.Date, map[seriesKey]int32](cacheDays),
		// One day-budget per dataset: the generic caches serve the whole
		// roster, so their capacity scales with the roster size.
		etags: syncx.NewLRU[frameKey, string](rosterCap),
		gzips: syncx.NewLRU[gzKey, csvDay](rosterCap),
	}
	s.renderErrs = s.metrics.Counter("apnicweb_render_errors_total")
	s.streamAborts = s.metrics.Counter("apnicweb_stream_aborts_total")
	s.notModified = s.metrics.Counter("apnicweb_not_modified_total")
	s.encGzip = s.metrics.Counter(`apnicweb_responses_total{encoding="gzip"}`)
	s.encIdentity = s.metrics.Counter(`apnicweb_responses_total{encoding="identity"}`)
	// Cache counters live in the LRUs on the hot path and are surfaced as
	// gauges at scrape time, so serving cost stays flat. The native
	// report cache's series (source_cache_*{dataset="apnic"}, ...) are
	// registered by the source layer on the same registry.
	s.metrics.GaugeFunc("apnicweb_cache_capacity_days", func() float64 { return float64(s.csv.Cap()) })
	s.metrics.GaugeFunc("apnicweb_csv_cache_evictions", func() float64 {
		_, _, e := s.csv.Stats()
		return float64(e)
	})
	s.metrics.GaugeFunc("apnicweb_index_cache_evictions", func() float64 {
		_, _, e := s.index.Stats()
		return float64(e)
	})
	s.metrics.GaugeFunc("apnicweb_csv_cache_days", func() float64 { return float64(s.csv.Len()) })
	s.metrics.GaugeFunc("apnicweb_gzip_cache_days", func() float64 { return float64(s.gzips.Len()) })
	s.metrics.GaugeFunc("apnicweb_gzip_cache_evictions", func() float64 {
		_, _, e := s.gzips.Stats()
		return float64(e)
	})
	s.metrics.GaugeFunc("apnicweb_etag_cache_days", func() float64 { return float64(s.etags.Len()) })
	return s
}

// Metrics exposes the server's registry so embedding binaries can add
// their own series and dump a snapshot on exit.
func (s *Server) Metrics() *obsv.Registry { return s.metrics }

// Registry exposes the dataset roster the server serves.
func (s *Server) Registry() *source.Registry { return s.reg }

// report returns the (cached) generated report for a day, generating it
// at most once even when many requests race on a cold day.
func (s *Server) report(d dates.Date) *apnic.Report {
	return s.apnicSrc.Report(d)
}

// rowIndex returns the day's (ASN, CC) → row-position map, built once
// per day. Series requests used to scan all of a day's rows per lookup
// (O(rows) each, tens of thousands of comparisons); the index makes
// every lookup after the first O(1).
func (s *Server) rowIndex(d dates.Date) map[seriesKey]int32 {
	return s.index.Get(d, func() map[seriesKey]int32 {
		rep := s.report(d)
		m := make(map[seriesKey]int32, len(rep.Rows))
		for i, row := range rep.Rows {
			m[seriesKey{row.ASN, row.CC}] = int32(i)
		}
		return m
	})
}

// routeLabel collapses request paths onto their route patterns so the
// per-route metric series stay bounded no matter what clients request.
// Dataset segments are kept only for registered datasets (a bounded set);
// everything else collapses to "other".
func (s *Server) routeLabel(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasPrefix(p, "/v1/reports/"):
		return "/v1/reports/:date"
	case strings.HasPrefix(p, "/v1/series/"):
		return "/v1/series/:asn"
	case strings.HasPrefix(p, "/v1/live/"):
		return "/v1/live/:cc"
	case p == "/v1/dates", p == "/healthz", p == "/metrics":
		return p
	}
	if rest, ok := strings.CutPrefix(p, "/v1/"); ok {
		name, tail, _ := strings.Cut(rest, "/")
		if _, known := s.reg.Lookup(name); known {
			switch {
			case tail == "dates":
				return "/v1/" + name + "/dates"
			case strings.HasPrefix(tail, "reports/"):
				return "/v1/" + name + "/reports/:date"
			case strings.HasPrefix(tail, "series/"):
				return "/v1/" + name + "/series/:key"
			}
		}
	}
	return "other"
}

// Handler returns the HTTP handler, instrumented with per-route metrics
// and (when s.Log is set) request logging.
//
// Routing is two-tier because Go 1.22 mux precedence demands it: the
// legacy literal patterns (/v1/reports/{date}) and the generic wildcard
// patterns (/v1/{dataset}/dates) overlap with neither more specific, so
// registering both in one mux panics. The outer mux owns the legacy
// routes plus the /v1/ subtree; the subtree is strictly less specific
// than every literal pattern, so legacy paths win and everything else
// falls through to the generic inner mux.
func (s *Server) Handler() http.Handler {
	inner := http.NewServeMux()
	inner.HandleFunc("GET /v1/{dataset}/dates", s.handleDatasetDates)
	inner.HandleFunc("GET /v1/{dataset}/reports/{date}", s.handleDatasetReport)
	inner.HandleFunc("GET /v1/{dataset}/series/{key}", s.handleDatasetSeries)

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /v1/dates", s.handleDates)
	mux.HandleFunc("GET /v1/reports/{date}", s.handleReport)
	mux.HandleFunc("GET /v1/series/{asn}", s.handleSeries)
	mux.HandleFunc("GET /v1/live/{country}", s.handleLive)
	mux.Handle("GET /metrics", s.metrics.Handler())
	mux.Handle("/v1/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, pattern := inner.Handler(r); pattern == "" {
			jsonError(w, http.StatusNotFound, "no such route")
			return
		}
		// Serve through the mux (not the matched handler directly) so the
		// inner patterns' path values are bound on the request.
		inner.ServeHTTP(w, r)
	}))
	mw := &obsv.HTTPMetrics{Registry: s.metrics, Log: s.Log, Route: s.routeLabel}
	return mw.Wrap(mux)
}

// errorBody is the JSON error shape of the generic dataset routes.
type errorBody struct {
	Error string `json:"error"`
}

// jsonError writes a JSON error body, the contract of every generic
// /v1/{dataset}/... route (legacy routes keep plain-text errors).
func jsonError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorBody{Error: msg})
}

// lookupDataset resolves the {dataset} path segment, writing the
// satellite JSON 404 when the name is unknown.
func (s *Server) lookupDataset(w http.ResponseWriter, r *http.Request) (source.Source, bool) {
	name := r.PathValue("dataset")
	src, ok := s.reg.Lookup(name)
	if !ok {
		jsonError(w, http.StatusNotFound,
			fmt.Sprintf("unknown dataset %q (served: %s)", name, strings.Join(s.reg.Names(), ", ")))
		return nil, false
	}
	return src, true
}

// DatasetDates is the /v1/{dataset}/dates response body.
type DatasetDates struct {
	Dataset string `json:"dataset"`
	First   string `json:"first"`
	Last    string `json:"last"`
	Cadence string `json:"cadence"`
}

func (s *Server) handleDatasetDates(w http.ResponseWriter, r *http.Request) {
	src, ok := s.lookupDataset(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(DatasetDates{
		Dataset: src.Name(),
		First:   s.first.String(),
		Last:    s.last.String(),
		Cadence: src.Window().Cadence,
	})
}

// handleDatasetReport serves one dataset-day in the representation the
// request resolves to (resolveRepr: path suffix, then Accept, then the
// bare-date JSON). Every representation carries a strong ETag derived
// from the frame content hash, suffixed with the row name so no two
// representations share a validator, and negotiates gzip through
// serveImmutable where its row allows it.
func (s *Server) handleDatasetReport(w http.ResponseWriter, r *http.Request) {
	src, ok := s.lookupDataset(w, r)
	if !ok {
		return
	}
	name, row := resolveRepr(s.reprs, r.PathValue("date"), r.Header.Get("Accept"))
	d, err := dates.Parse(name)
	if err != nil {
		jsonError(w, http.StatusBadRequest, badDate)
		return
	}
	if d.Before(s.first) || d.After(s.last) {
		jsonError(w, http.StatusNotFound, "date out of served range")
		return
	}
	b := immutableBody{row: row, dataset: src.Name(), day: d}
	f, err := s.reg.Frame(src.Name(), d)
	if err == nil {
		// Pre-flight the frame shape before any byte is written: once the
		// stream starts, a failure can only abort the connection, so every
		// error detectable up front must become a clean 500 here.
		err = f.Check()
	}
	if err == nil && row.encode != nil {
		b.body, err = s.encoded.get(row, src.Name(), d, f)
	}
	if err != nil {
		s.renderErrs.Inc()
		if s.Log != nil {
			s.Log.Printf("render error dataset=%s date=%s err=%q", src.Name(), d, err)
		}
		jsonError(w, http.StatusInternalServerError, "report generation failed: "+err.Error())
		return
	}
	b.hash = s.frameHash(src.Name(), d, f)
	b.fail = func(code int, msg string) {
		s.renderErrs.Inc()
		jsonError(w, code, msg)
	}
	if row.stream != nil {
		b.stream = func(w io.Writer) error { return row.stream(f, w) }
	}
	s.serveImmutable(w, r, b)
}

// frameHash memoizes the frame content hash per (dataset, day). Hashing
// is much cheaper than rendering (no per-cell formatting) but still
// O(cells), so a hot day pays it once while resident.
func (s *Server) frameHash(dataset string, d dates.Date, f *source.Frame) string {
	return s.etags.Get(frameKey{dataset, d.DayNumber()}, f.ContentHash)
}

// immutableBody describes one immutable dataset-day representation for
// serveImmutable: a materialized identity body (an encoded row, or the
// legacy CSV, whose bytes are cached anyway for the byte-identity
// contract) or a streamable render (the text rows). Exactly one of body
// and stream is set.
type immutableBody struct {
	row     *repr
	dataset string
	day     dates.Date
	hash    string                // content hash, the ETag base
	body    []byte                // identity bytes, when already materialized
	stream  func(io.Writer) error // identity streamer otherwise
	fail    func(code int, msg string)
}

// serveImmutable finishes a report response: ETag / If-None-Match
// validation, Accept-Encoding negotiation, the bounded pre-compressed
// cache for gzip bodies, and row-streamed identity bodies.
//
// Ordering is load-bearing. The 304 check runs before any rendering so a
// revalidation costs one memoized hash lookup. The gzip body is rendered
// into the cache from the frame — never teed off a live response — so a
// mid-download disconnect cannot poison it. The identity stream writes
// last, after every fallible step, because once it starts the only
// honest way to report failure is aborting the connection (streamBody).
func (s *Server) serveImmutable(w http.ResponseWriter, r *http.Request, b immutableBody) {
	gz := b.row.gzip && acceptsGzip(r.Header.Get("Accept-Encoding"))
	variant := b.row.name
	if gz {
		variant += ".gz"
	}
	etag := source.FormatETag(b.hash, variant)
	h := w.Header()
	// Sent on 304s too: revalidation updates stored response metadata.
	h.Set("Vary", b.row.vary)
	h.Set("ETag", etag)
	h.Set("Cache-Control", "public, max-age=86400")
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		s.notModified.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Content-Type", b.row.contentType)
	if r.Method == http.MethodHead {
		// Go 1.22 "GET /..." patterns also match HEAD, and before this
		// check a HEAD request fell through to the body paths: the
		// streaming routes rendered (and chunked) a full body net/http then
		// had to discard, and a mid-render failure could panic with
		// ErrAbortHandler on a request that never wanted bytes at all.
		// Answer with the negotiated headers alone. Content-Length is
		// declared only when the identity body is already materialized;
		// gzip and streamed lengths are unknown without rendering, which is
		// exactly the work HEAD exists to skip.
		if gz {
			h.Set("Content-Encoding", "gzip")
			s.encGzip.Inc()
		} else {
			if b.body != nil && b.row.declareLen {
				h.Set("Content-Length", strconv.Itoa(len(b.body)))
			}
			s.encIdentity.Inc()
		}
		w.WriteHeader(http.StatusOK)
		return
	}
	if gz {
		body, err := s.gzipBody(b)
		if err != nil {
			if s.Log != nil {
				s.Log.Printf("gzip render error dataset=%s repr=%s date=%s err=%q", b.dataset, b.row.name, b.day, err)
			}
			// Strip the success-only headers: a 500 carrying a public
			// max-age Cache-Control (or a validator) could get cached.
			h.Del("ETag")
			h.Del("Cache-Control")
			h.Del("Vary")
			h.Del("Content-Type")
			b.fail(http.StatusInternalServerError, "report generation failed: "+err.Error())
			return
		}
		h.Set("Content-Encoding", "gzip")
		// The compressed body is materialized (that is the point of the
		// hot-day cache), so its length is known and safe to declare.
		h.Set("Content-Length", strconv.Itoa(len(body)))
		s.encGzip.Inc()
		w.Write(body)
		return
	}
	s.encIdentity.Inc()
	if b.body != nil {
		// Content-Length is deliberately not set for the legacy route:
		// net/http chunks large bodies exactly as it did before the
		// conditional layer existed, keeping those responses
		// byte-identical on the wire. The encoded rows opt in instead —
		// their body is a materialized artifact with a known length.
		if b.row.declareLen {
			h.Set("Content-Length", strconv.Itoa(len(b.body)))
		}
		w.Write(b.body)
		return
	}
	s.streamBody(w, b)
}

// streamBody writes an identity body row-by-row. The whole rendered
// report never exists in server memory — the CSV/JSON writers flush
// through their small encoder buffers straight into the chunked response.
//
// A mid-stream failure cannot change the status code (it is already on
// the wire as 200) and must not be papered over: returning normally would
// let net/http write the terminating zero-length chunk, making the
// truncated body indistinguishable from a complete one. Panicking with
// http.ErrAbortHandler instead drops the connection so the client's read
// fails — the HTTP-shaped version of "crash, don't corrupt".
func (s *Server) streamBody(w http.ResponseWriter, b immutableBody) {
	if err := b.stream(w); err != nil {
		s.streamAborts.Inc()
		if s.Log != nil {
			s.Log.Printf("stream abort dataset=%s repr=%s date=%s err=%q", b.dataset, b.row.name, b.day, err)
		}
		panic(http.ErrAbortHandler)
	}
}

// gzipWriters pools gzip.Writer instances for the pre-compressed-LRU
// fill path. A gzip writer carries ~1.3MB of deflate state (hash chains,
// window, output buffers); constructing one per cache fill made every
// cold gzip request pay that allocation and the GC churn behind it.
// Reset rebinds a pooled writer to a new destination with the same
// BestSpeed level, and gzip output is a pure function of (input, level),
// so reuse is byte-identical to a fresh writer — pinned by
// TestGzipWriterPoolByteIdentical.
var gzipWriters = sync.Pool{
	New: func() any {
		zw, _ := gzip.NewWriterLevel(io.Discard, gzip.BestSpeed)
		return zw
	},
}

// gzipBody returns the cached gzip representation, rendering and
// compressing it at most once per (repr, dataset, day) while resident.
// The fill renders from the immutable artifact, never from a client
// connection, so partial client reads cannot poison the cache; and gzip
// output is deterministic for a fixed input and level, so a refill after
// eviction is byte-identical.
func (s *Server) gzipBody(b immutableBody) ([]byte, error) {
	day := s.gzips.Get(gzKey{b.row.name, b.dataset, b.day.DayNumber()}, func() csvDay {
		var buf bytes.Buffer
		zw := gzipWriters.Get().(*gzip.Writer)
		zw.Reset(&buf)
		var err error
		if b.body != nil {
			_, err = zw.Write(b.body)
		} else {
			err = b.stream(zw)
		}
		if cerr := zw.Close(); err == nil {
			err = cerr
		}
		// Pool even after an error: Reset clears sticky write errors, and
		// a closed writer is reusable by contract.
		gzipWriters.Put(zw)
		if err != nil {
			// Deterministic render: the failure recurs on every attempt,
			// so caching it is sound (and repeat requests see one message).
			return csvDay{err: err}
		}
		return csvDay{body: buf.Bytes()}
	})
	return day.body, day.err
}

// GenericSeriesPoint is one date of a generic per-row series: every
// numeric column of the matched row.
type GenericSeriesPoint struct {
	Date   string             `json:"date"`
	Values map[string]float64 `json:"values"`
}

// GenericSeriesResponse is the /v1/{dataset}/series body.
type GenericSeriesResponse struct {
	Dataset string               `json:"dataset"`
	Key     string               `json:"key"`
	Country string               `json:"cc,omitempty"`
	Points  []GenericSeriesPoint `json:"points"`
}

// seriesSelector maps a dataset's route key to the frame columns that
// identify one row. Unified rule: itu rows are keyed by country alone
// (the key IS the cc); apnic rows by (AS, cc); every per-(country, org)
// dataset by (Org, cc).
func seriesSelector(dataset, key, cc string) (map[string]string, string, error) {
	switch dataset {
	case "itu":
		return map[string]string{"CC": key}, "", nil
	case apnic.DatasetName:
		asn, ok := strings.CutPrefix(key, "AS")
		if !ok {
			return nil, "", fmt.Errorf("want /v1/%s/series/AS<asn>", dataset)
		}
		if _, err := strconv.ParseUint(asn, 10, 32); err != nil {
			return nil, "", fmt.Errorf("bad ASN")
		}
		if cc == "" {
			return nil, "", fmt.Errorf("missing cc parameter")
		}
		return map[string]string{"AS": asn, "CC": cc}, cc, nil
	default:
		if cc == "" {
			return nil, "", fmt.Errorf("missing cc parameter")
		}
		return map[string]string{"Org": key, "CC": cc}, cc, nil
	}
}

// matchRow returns the index of the first row whose cells equal the
// selector, or -1. Cells compare in codec form, so int columns match
// their decimal strings.
func matchRow(f *source.Frame, sel map[string]string) int {
	cols := make([]*source.Column, 0, len(sel))
	want := make([]string, 0, len(sel))
	for name, v := range sel {
		c := f.Col(name)
		if c == nil {
			return -1
		}
		cols = append(cols, c)
		want = append(want, v)
	}
	for i := 0; i < f.Rows(); i++ {
		hit := true
		for j, c := range cols {
			if c.Cell(i) != want[j] {
				hit = false
				break
			}
		}
		if hit {
			return i
		}
	}
	return -1
}

// handleDatasetSeries serves a per-row time series for any dataset: the
// generic analogue of the legacy per-AS series route.
func (s *Server) handleDatasetSeries(w http.ResponseWriter, r *http.Request) {
	src, ok := s.lookupDataset(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	sel, cc, err := seriesSelector(src.Name(), r.PathValue("key"), q.Get("cc"))
	if err != nil {
		jsonError(w, http.StatusBadRequest, err.Error())
		return
	}
	from, to, step, ok := s.seriesRange(q, func(code int, msg string) { jsonError(w, code, msg) })
	if !ok {
		return
	}
	resp := GenericSeriesResponse{Dataset: src.Name(), Key: r.PathValue("key"), Country: cc}
	for _, d := range dates.Range(from, to, step) {
		f, err := s.reg.Frame(src.Name(), d)
		if err != nil {
			jsonError(w, http.StatusInternalServerError, err.Error())
			return
		}
		i := matchRow(f, sel)
		if i < 0 {
			continue
		}
		vals := map[string]float64{}
		for _, c := range f.Cols {
			if _, isKey := sel[c.Name]; isKey {
				continue
			}
			switch c.Kind {
			case source.Int:
				vals[c.Name] = float64(c.Ints[i])
			case source.Float:
				vals[c.Name] = c.Floats[i]
			}
		}
		resp.Points = append(resp.Points, GenericSeriesPoint{Date: d.String(), Values: vals})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// seriesRange parses and clips the shared from/to/step query parameters,
// reporting errors through fail (legacy routes pass http.Error, generic
// routes pass jsonError).
func (s *Server) seriesRange(q url.Values, fail func(int, string)) (from, to dates.Date, step int, ok bool) {
	var err error
	from, to = s.first, s.last
	if v := q.Get("from"); v != "" {
		if from, err = dates.Parse(v); err != nil {
			fail(http.StatusBadRequest, "bad from date")
			return
		}
	}
	if v := q.Get("to"); v != "" {
		if to, err = dates.Parse(v); err != nil {
			fail(http.StatusBadRequest, "bad to date")
			return
		}
	}
	if from.After(to) {
		// This used to fall through and return a silently empty series,
		// indistinguishable from "row not present" — reject it instead.
		fail(http.StatusBadRequest, "from is after to")
		return
	}
	step = 1
	if v := q.Get("step"); v != "" {
		if step, err = strconv.Atoi(v); err != nil || step < 1 {
			fail(http.StatusBadRequest, "bad step")
			return
		}
	}
	if from.Before(s.first) {
		from = s.first
	}
	if to.After(s.last) {
		to = s.last
	}
	if from.After(to) { // requested window entirely outside the served range
		fail(http.StatusBadRequest, "range does not overlap the served dates")
		return
	}
	const maxPoints = 120
	if span := to.Sub(from)/step + 1; span > maxPoints {
		fail(http.StatusBadRequest, fmt.Sprintf("too many points (max %d); raise step or narrow the range", maxPoints))
		return
	}
	return from, to, step, true
}

// SeriesPoint is one day of the per-AS series response.
type SeriesPoint struct {
	Date    string  `json:"date"`
	Users   float64 `json:"users"`
	Samples int64   `json:"samples"`
}

// SeriesResponse is the /v1/series body.
type SeriesResponse struct {
	ASN     uint32        `json:"asn"`
	Country string        `json:"cc"`
	Points  []SeriesPoint `json:"points"`
}

// handleSeries serves the per-(country, AS) daily series — the view the
// paper's footnote 2 links for Bouygues Telecom on the real site. It is
// the legacy alias of /v1/apnic/series/{asn}; its response shape and
// error strings are pinned by the byte-identity tests.
func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("asn")
	if !strings.HasPrefix(name, "AS") {
		http.Error(w, "want /v1/series/AS<asn>", http.StatusNotFound)
		return
	}
	asn64, err := strconv.ParseUint(strings.TrimPrefix(name, "AS"), 10, 32)
	if err != nil {
		http.Error(w, "bad ASN", http.StatusBadRequest)
		return
	}
	q := r.URL.Query()
	cc := q.Get("cc")
	if cc == "" {
		http.Error(w, "missing cc parameter", http.StatusBadRequest)
		return
	}
	from, to, step, ok := s.seriesRange(q, func(code int, msg string) { http.Error(w, msg, code) })
	if !ok {
		return
	}

	resp := SeriesResponse{ASN: uint32(asn64), Country: cc}
	key := seriesKey{resp.ASN, cc}
	for _, d := range dates.Range(from, to, step) {
		if i, ok := s.rowIndex(d)[key]; ok {
			row := s.report(d).Rows[i]
			resp.Points = append(resp.Points, SeriesPoint{
				Date: d.String(), Users: row.Users, Samples: row.Samples,
			})
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// DateRange is the /v1/dates response body.
type DateRange struct {
	First string `json:"first"`
	Last  string `json:"last"`
}

func (s *Server) handleDates(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(DateRange{First: s.first.String(), Last: s.last.String()})
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("date")
	trimmed, ok := strings.CutSuffix(name, legacy.suffix)
	if !ok {
		http.Error(w, "want /v1/reports/<YYYY-MM-DD>.csv", http.StatusNotFound)
		return
	}
	d, err := dates.Parse(trimmed)
	if err != nil {
		http.Error(w, "bad date", http.StatusBadRequest)
		return
	}
	if d.Before(s.first) || d.After(s.last) {
		http.Error(w, "date out of served range", http.StatusNotFound)
		return
	}
	body, hash, err := s.render(d)
	if err != nil {
		// The old handler swallowed err here, leaving operators with an
		// opaque 500 and no counter to alert on.
		s.renderErrs.Inc()
		if s.Log != nil {
			s.Log.Printf("render error date=%s err=%q", d, err)
		}
		http.Error(w, "report generation failed: "+err.Error(), http.StatusInternalServerError)
		return
	}
	// The identity body stays the cached native render, byte-identical to
	// the pre-conditional server; the "legacy" row keys a separate gzip
	// cache slot because these bytes differ from the frame-CSV codec's.
	s.serveImmutable(w, r, immutableBody{
		row:     &legacy,
		dataset: apnic.DatasetName,
		day:     d,
		hash:    hash,
		body:    body,
		fail: func(code int, msg string) {
			s.renderErrs.Inc()
			http.Error(w, msg, code)
		},
	})
}

func (s *Server) render(d dates.Date) ([]byte, string, error) {
	day := s.csv.Get(d, func() csvDay {
		var b strings.Builder
		if err := s.writeCSV(s.report(d), &b); err != nil {
			// Rendering is deterministic in (seed, date), so a failure
			// would recur on every attempt; caching it is sound — and
			// repeat requests must see the same error, not a flap.
			return csvDay{err: err}
		}
		body := []byte(b.String())
		// Hash once at fill: the legacy route's canonical artifact is the
		// body itself, so its validator comes from the bytes, not a frame.
		return csvDay{body: body, etag: bodyHash(body)}
	})
	return day.body, day.etag, day.err
}

// errBodyLimit caps how much of a non-200 response body the client reads
// into an error message; errDrainLimit caps how much more it will drain
// to keep the connection reusable before giving up and closing it.
const (
	errBodyLimit  = 1 << 10
	errDrainLimit = 64 << 10
)

// Client fetches reports from a server. It retries transient failures
// (connection errors, 429, 5xx) with exponential backoff through
// obsv.RetryTransport; see Retry.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient defaults to a client with a 30s timeout. Its transport
	// is wrapped with the retrying transport on first use.
	HTTPClient *http.Client
	// Retry overrides the default retry policy (4 attempts, 100ms base
	// backoff). Set before first use.
	Retry obsv.RetryPolicy
	// Metrics, when non-nil, receives per-attempt client metrics
	// (httpclient_attempts_total, httpclient_retries_total, ...).
	Metrics *obsv.Registry
	// Log, when non-nil, gets one line per retry with delay and cause.
	Log *log.Logger

	once sync.Once
	c    *http.Client
}

func (c *Client) http() *http.Client {
	c.once.Do(func() {
		base := c.HTTPClient
		if base == nil {
			base = &http.Client{Timeout: 30 * time.Second}
		}
		wrapped := *base // shallow copy so we never mutate the caller's client
		wrapped.Transport = &obsv.RetryTransport{
			Base:    base.Transport,
			Policy:  c.Retry,
			Metrics: c.Metrics,
			Log:     c.Log,
		}
		c.c = &wrapped
	})
	return c.c
}

// errorf reads a bounded snippet of a non-200 response body for the
// error message, then drains (bounded) so the connection can be reused.
// The old client closed the body unread, which killed keep-alive on
// every error response.
func errorf(u string, resp *http.Response) error {
	snippet, _ := io.ReadAll(io.LimitReader(resp.Body, errBodyLimit))
	io.Copy(io.Discard, io.LimitReader(resp.Body, errDrainLimit))
	msg := strings.TrimSpace(string(snippet))
	if msg == "" {
		return fmt.Errorf("apnicweb: GET %s: %s", u, resp.Status)
	}
	return fmt.Errorf("apnicweb: GET %s: %s: %s", u, resp.Status, msg)
}

// Dates fetches the served date range.
func (c *Client) Dates(ctx context.Context) (first, last dates.Date, err error) {
	u, err := url.JoinPath(c.BaseURL, "/v1/dates")
	if err != nil {
		return first, last, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return first, last, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return first, last, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return first, last, errorf(u, resp)
	}
	var dr DateRange
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		return first, last, fmt.Errorf("apnicweb: decoding dates: %w", err)
	}
	// The decoder stops at the closing brace; drain the trailing newline
	// so the connection goes back to the keep-alive pool.
	io.Copy(io.Discard, io.LimitReader(resp.Body, errDrainLimit))
	if first, err = dates.Parse(dr.First); err != nil {
		return first, last, err
	}
	last, err = dates.Parse(dr.Last)
	return first, last, err
}

// Report fetches and parses one day's report.
func (c *Client) Report(ctx context.Context, d dates.Date) (*apnic.Report, error) {
	u, err := url.JoinPath(c.BaseURL, "/v1/reports/", d.String()+".csv")
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, errorf(u, resp)
	}
	rep, err := apnic.ReadCSV(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("apnicweb: parsing %s: %w", d, err)
	}
	return rep, nil
}

// DatasetDates fetches one dataset's served range and cadence from the
// generic /v1/{dataset}/dates route.
func (c *Client) DatasetDates(ctx context.Context, dataset string) (DatasetDates, error) {
	var dd DatasetDates
	u, err := url.JoinPath(c.BaseURL, "/v1/", dataset, "/dates")
	if err != nil {
		return dd, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return dd, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return dd, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return dd, errorf(u, resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(&dd); err != nil {
		return dd, fmt.Errorf("apnicweb: decoding %s dates: %w", dataset, err)
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, errDrainLimit))
	return dd, nil
}

// Frame fetches one dataset-day in the named representation ("csv",
// "json", "bin" or "binz") from its suffix path, checks the response's
// Content-Type against the representation, and decodes the body. A "bin"
// frame aliases the response buffer (zero-copy decode, a constant number
// of allocations regardless of row count); the other decoders return
// frames that own their memory.
func (c *Client) Frame(ctx context.Context, dataset string, d dates.Date, format string) (*source.Frame, error) {
	row, ok := lookupRepr(reprs, format)
	if !ok {
		return nil, fmt.Errorf("apnicweb: unknown representation %q", format)
	}
	u, err := url.JoinPath(c.BaseURL, "/v1/", dataset, "/reports/", d.String()+row.suffix)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, errorf(u, resp)
	}
	if ct := resp.Header.Get("Content-Type"); ct != row.contentType {
		return nil, fmt.Errorf("apnicweb: GET %s: server answered %q, not %q", u, ct, row.contentType)
	}
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("apnicweb: reading %s %s: %w", dataset, d, err)
	}
	f, err := row.decode(buf)
	if err != nil {
		return nil, fmt.Errorf("apnicweb: decoding %s %s %s: %w", format, dataset, d, err)
	}
	return f, nil
}
