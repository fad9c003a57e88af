// Package loadgen is the load generator behind cmd/loadgen: a synthetic
// client population for the multi-dataset report server with a realistic
// access model (Zipf dataset popularity, recency-biased day selection,
// conditional revalidations, gzip negotiation, thundering herds on
// cache-cold days) driven in either a closed loop (N clients, each
// waiting for its response before issuing the next request) or an open
// loop (requests dispatched on a fixed schedule regardless of how slowly
// the server answers — the arrival model that actually exposes queueing
// collapse, which a closed loop structurally cannot).
//
// Latency in the open loop is measured from each request's *intended*
// start time, not from when a worker got around to sending it, so slow
// responses cannot hide behind their own backpressure (the classic
// coordinated-omission mistake).
package loadgen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dates"
)

// Route kinds emitted by the model. These are also the bounded label set
// for per-route stats, so they stay a small fixed vocabulary.
const (
	RouteReportBinz = "report-binz" // /v1/{dataset}/reports/{date}.binz
	RouteReportBin  = "report-bin"  // /v1/{dataset}/reports/{date}.bin
	RouteReportCSV  = "report-csv"  // /v1/{dataset}/reports/{date}.csv
	RouteReportJSON = "report-json" // /v1/{dataset}/reports/{date}
	RouteLegacyCSV  = "legacy-csv"  // /v1/reports/{date}.csv
	RouteDates      = "dates"       // /v1/{dataset}/dates
	RouteSeries     = "series"      // caller-provided series paths
	RouteLive       = "live"        // /v1/live/{country} rolling estimates
	RouteHerd       = "herd"        // thundering-herd cold-day bursts
)

// routeMix is the cumulative distribution over route kinds, modelled on
// a dashboard-plus-bulk-export workload: a small polling share hits the
// live rolling estimates, over a quarter of traffic takes the binary
// frame plane (programmatic bulk consumers, split between the compressed
// and raw encodings), the bulk fetches full-day CSVs, another slice takes
// JSON, and a tail hits the legacy alias, the dates index, and per-AS
// series.
var routeMix = []struct {
	route string
	cum   float64
}{
	{RouteLive, 0.04},
	{RouteReportBinz, 0.15},
	{RouteReportBin, 0.30},
	{RouteReportCSV, 0.56},
	{RouteReportJSON, 0.75},
	{RouteLegacyCSV, 0.85},
	{RouteDates, 0.95},
	{RouteSeries, 1.00},
}

// Request is one planned hit: the path to fetch and how to fetch it.
type Request struct {
	Route       string // one of the Route* kinds
	Path        string // URL path + query, relative to the base URL
	Gzip        bool   // send Accept-Encoding: gzip
	Conditional bool   // replay the last seen ETag as If-None-Match
}

// Model generates the request stream. It is NOT safe for concurrent use;
// the runner gives each worker its own Model derived from the base seed
// so the stream is deterministic per (seed, worker) regardless of
// scheduling.
type Model struct {
	rng      *rand.Rand
	zipf     *rand.Zipf
	datasets []string
	first    dates.Date
	days     int // inclusive day count of [first, last]

	hotHalfLife   float64
	gzipFraction  float64
	condFraction  float64
	seriesPaths   []string
	liveCountries []string
}

// ModelConfig parameterizes the access model.
type ModelConfig struct {
	Datasets    []string   // popularity order: Datasets[0] is the hottest
	First, Last dates.Date // serving window
	ZipfS       float64    // Zipf exponent over dataset ranks (>1; default 1.2)
	// HotDayHalfLife is the recency bias in days: the probability of
	// requesting a day k days before Last halves every HotDayHalfLife
	// days. <= 0 disables the bias (uniform days).
	HotDayHalfLife float64
	GzipFraction   float64  // fraction of requests offering gzip
	CondFraction   float64  // fraction of repeat requests sent conditionally
	SeriesPaths    []string // concrete series paths; empty disables RouteSeries
	// LiveCountries are the country codes the live-poll share cycles
	// through; empty disables RouteLive (its share folds into report
	// CSVs, like SeriesPaths).
	LiveCountries []string
}

// NewModel builds a deterministic request model for one worker stream.
func NewModel(seed uint64, cfg ModelConfig) (*Model, error) {
	if len(cfg.Datasets) == 0 {
		return nil, fmt.Errorf("loadgen: no datasets")
	}
	days := cfg.Last.DayNumber() - cfg.First.DayNumber() + 1
	if days < 1 {
		return nil, fmt.Errorf("loadgen: empty date window %s..%s", cfg.First, cfg.Last)
	}
	s := cfg.ZipfS
	if s <= 1 {
		s = 1.2
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	return &Model{
		rng:           rng,
		zipf:          rand.NewZipf(rng, s, 1, uint64(len(cfg.Datasets)-1)),
		datasets:      cfg.Datasets,
		first:         cfg.First,
		days:          days,
		hotHalfLife:   cfg.HotDayHalfLife,
		gzipFraction:  cfg.GzipFraction,
		condFraction:  cfg.CondFraction,
		seriesPaths:   cfg.SeriesPaths,
		liveCountries: cfg.LiveCountries,
	}, nil
}

// Next plans the next request in this worker's stream.
func (m *Model) Next() Request {
	route := m.pickRoute()
	req := Request{
		Route:       route,
		Gzip:        m.rng.Float64() < m.gzipFraction,
		Conditional: m.rng.Float64() < m.condFraction,
	}
	ds := m.datasets[m.zipf.Uint64()]
	switch route {
	case RouteReportBinz:
		req.Path = "/v1/" + ds + "/reports/" + m.pickDay().String() + ".binz"
	case RouteReportBin:
		req.Path = "/v1/" + ds + "/reports/" + m.pickDay().String() + ".bin"
	case RouteReportCSV:
		req.Path = "/v1/" + ds + "/reports/" + m.pickDay().String() + ".csv"
	case RouteReportJSON:
		req.Path = "/v1/" + ds + "/reports/" + m.pickDay().String()
	case RouteLegacyCSV:
		req.Path = "/v1/reports/" + m.pickDay().String() + ".csv"
	case RouteDates:
		req.Path = "/v1/" + ds + "/dates"
	case RouteSeries:
		req.Path = m.seriesPaths[m.rng.Intn(len(m.seriesPaths))]
	case RouteLive:
		req.Path = "/v1/live/" + m.liveCountries[m.rng.Intn(len(m.liveCountries))]
	}
	return req
}

// pickRoute samples the route mix, degrading series traffic to report
// CSVs when no series paths were provided, and live traffic likewise
// when no live countries were configured.
func (m *Model) pickRoute() string {
	u := m.rng.Float64()
	for _, e := range routeMix {
		if u <= e.cum {
			if e.route == RouteSeries && len(m.seriesPaths) == 0 {
				return RouteReportCSV
			}
			if e.route == RouteLive && len(m.liveCountries) == 0 {
				return RouteReportCSV
			}
			return e.route
		}
	}
	return RouteReportCSV
}

// pickDay samples a day from the serving window with geometric recency
// bias: offset-from-last is exponential with the configured half-life,
// resampled (or clamped on a narrow window) into range.
func (m *Model) pickDay() dates.Date {
	last := m.first.AddDays(m.days - 1)
	if m.hotHalfLife <= 0 {
		return m.first.AddDays(m.rng.Intn(m.days))
	}
	// Exponential with rate ln2/halfLife has P(offset >= k) = 2^(-k/hl).
	offset := int(m.rng.ExpFloat64() * m.hotHalfLife / math.Ln2)
	if offset >= m.days {
		offset = m.days - 1 // clamp: narrow windows keep the hottest day hot
	}
	return last.AddDays(-offset)
}
