// Command loadgen load-proves the report server: it drives the full
// seven-dataset serving stack with a realistic synthetic workload (Zipf
// dataset popularity, recency-biased day selection, conditional
// revalidations, gzip negotiation, thundering herds on cache-cold days)
// in closed- and open-loop modes, and writes per-route latency
// quantiles, throughput, and error budgets to a JSON artifact
// (BENCH_load.json) with a rolling history, so serving-path regressions
// show up as a trend rather than an anecdote.
//
// Usage:
//
//	loadgen -self [flags]                 # in-process server on a loopback port
//	loadgen -base http://host:8080 [...]  # an already-running server
//
// Key flags: -mode closed|open|both, -requests N, -duration D, -c N
// (concurrency), -rate R (open-loop req/s), -herd-every N -herd-size N,
// -out BENCH_load.json, and the CI gates -max-regress-pct P (worst
// per-route p99 vs the baseline's same-mode headline) and
// -max-error-rate F. Like benchsweep, the baseline is loaded from -out
// before it is overwritten and its headline is folded into the report's
// history. Exit status 1 means a gate fired.
//
// With -verify every 200 body is hashed per (path, encoding) and any
// byte drift between requests is an error: the immutability contract
// ("same day, same bytes, forever") checked under concurrent load.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/apnic"
	"repro/internal/apnicweb"
	"repro/internal/dates"
	"repro/internal/itu"
	"repro/internal/loadgen"
	"repro/internal/stream"
	"repro/internal/world"
)

func main() {
	var (
		self      = flag.Bool("self", false, "serve in-process on a loopback port instead of -base")
		base      = flag.String("base", "", "base URL of a running server (ignored with -self)")
		seed      = flag.Uint64("seed", 42, "world + workload seed")
		first     = flag.String("first", "2024-01-01", "first served day")
		last      = flag.String("last", "2024-12-31", "last served day")
		cacheDays = flag.Int("cache-days", 30, "server day-cache capacity (-self only)")
		mode      = flag.String("mode", "both", "closed, open, or both")
		requests  = flag.Int("requests", 2000, "request budget per run (0 = duration-bound)")
		duration  = flag.Duration("duration", 0, "wall-clock budget per run (0 = request-bound)")
		conc      = flag.Int("c", 8, "concurrent workers")
		rate      = flag.Float64("rate", 200, "open-loop dispatch rate, requests/second")
		zipfS     = flag.Float64("zipf-s", 1.2, "Zipf exponent over dataset popularity ranks")
		halfLife  = flag.Float64("hot-half-life", 7, "day-recency half-life in days (0 = uniform)")
		gzipFrac  = flag.Float64("gzip-fraction", 0.5, "fraction of requests offering gzip")
		condFrac  = flag.Float64("cond-fraction", 0.3, "fraction of repeat requests sent conditionally")
		herdEvery = flag.Int("herd-every", 500, "thundering herd every N dispatches (0 = off)")
		herdSize  = flag.Int("herd-size", 16, "goroutines per herd")
		liveCCs   = flag.String("live-countries", "FR,DE,US,BR,JP",
			"comma-separated countries for the live-poll route share (empty = no live traffic)")
		verify   = flag.Bool("verify", true, "hash bodies and fail on byte drift per path+encoding")
		out      = flag.String("out", "BENCH_load.json", "output path")
		baseline = flag.String("baseline", "", "baseline report for the gates and history (default: -out before overwrite)")
		maxPct   = flag.Float64("max-regress-pct", 0, "fail if worst p99 regresses more than this percent vs baseline (0 = no gate)")
		maxErr   = flag.Float64("max-error-rate", 0, "fail if the error rate exceeds this fraction (negative = no gate)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "loadgen: ", 0)

	firstD, err := dates.Parse(*first)
	if err != nil {
		logger.Fatalf("-first: %v", err)
	}
	lastD, err := dates.Parse(*last)
	if err != nil {
		logger.Fatalf("-last: %v", err)
	}

	baseURL := *base
	if *self {
		baseURL = startSelf(logger, *seed, firstD, lastD, *cacheDays)
	}
	if baseURL == "" {
		logger.Fatal("need -self or -base")
	}

	model := loadgen.ModelConfig{
		Datasets:       loadgen.Datasets,
		First:          firstD,
		Last:           lastD,
		ZipfS:          *zipfS,
		HotDayHalfLife: *halfLife,
		GzipFraction:   *gzipFrac,
		CondFraction:   *condFrac,
		SeriesPaths:    seriesPaths(logger, baseURL, firstD, lastD),
		LiveCountries:  splitCCs(*liveCCs),
	}

	var modes []loadgen.Mode
	switch *mode {
	case "closed":
		modes = []loadgen.Mode{loadgen.Closed}
	case "open":
		modes = []loadgen.Mode{loadgen.Open}
	case "both":
		modes = []loadgen.Mode{loadgen.Closed, loadgen.Open}
	default:
		logger.Fatalf("bad -mode %q", *mode)
	}

	basePath := *baseline
	if basePath == "" {
		basePath = *out
	}
	baseRep := loadgen.LoadReport(basePath)

	rep := &loadgen.Report{
		GeneratedUnix: time.Now().Unix(),
		GoVersion:     runtime.Version(),
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Seed:          *seed,
	}
	for _, m := range modes {
		res, err := loadgen.Run(context.Background(), loadgen.Config{
			BaseURL:      baseURL,
			Model:        model,
			Seed:         *seed,
			Mode:         m,
			Concurrency:  *conc,
			Requests:     *requests,
			Duration:     *duration,
			Rate:         *rate,
			HerdEvery:    *herdEvery,
			HerdSize:     *herdSize,
			VerifyBodies: *verify,
			Log:          logger,
		})
		if err != nil {
			logger.Fatalf("%s run: %v", m, err)
		}
		rep.Runs = append(rep.Runs, res)
		fmt.Fprintf(os.Stderr, "%-6s: %d req in %s (%.0f rps), errors=%d dropped=%d herds=%d\n",
			m, res.Requests, time.Duration(res.WallNS).Round(time.Millisecond), res.Throughput,
			res.Errors, res.Dropped, res.Herds)
		for _, rs := range res.Routes {
			fmt.Fprintf(os.Stderr, "  %-12s n=%-6d p50=%-9s p95=%-9s p99=%-9s p999=%-9s 304=%d err=%d\n",
				rs.Route, rs.Requests, secs(rs.P50), secs(rs.P95), secs(rs.P99), secs(rs.P999),
				rs.NotModified, rs.Errors)
		}
	}

	rep.FoldHistory(baseRep)
	if err := rep.WriteReport(*out); err != nil {
		logger.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)

	if err := loadgen.Gate(rep, baseRep, *maxPct, *maxErr); err != nil {
		logger.Printf("gate failed: %v", err)
		os.Exit(1)
	}
}

// startSelf boots a full multi-server on an ephemeral loopback port and
// returns its base URL. A real TCP listener, not httptest: the load goes
// through the same kernel path a production client would use.
func startSelf(logger *log.Logger, seed uint64, first, last dates.Date, cacheDays int) string {
	w := world.MustBuild(world.Config{Seed: seed})
	srv := apnicweb.NewMultiServer(w, seed, first, last, cacheDays)

	// Attach a live rolling estimator primed with the last served day, so
	// the live-poll route share exercises the full 200/304 path (an
	// unprimed estimator would answer nothing but contract 503s).
	gen := apnic.New(w, itu.New(w, seed), seed)
	est := stream.NewRollingEstimator(gen)
	for _, c := range gen.DayCounts(last) {
		est.Observe(stream.Impression{Day: last, CC: c.CC, ASN: c.ASN, Weight: c.Samples})
	}
	srv.SetLive(est)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		logger.Fatal(err)
	}
	go func() {
		if err := http.Serve(ln, srv.Handler()); err != nil {
			logger.Printf("server: %v", err)
		}
	}()
	url := "http://" + ln.Addr().String()
	logger.Printf("self-serving %d datasets at %s", len(srv.Registry().Names()), url)
	return url
}

// seriesPaths derives a handful of real per-AS series paths from the
// last day's APNIC report so the series share of the mix queries rows
// that exist. Failures degrade to no series traffic rather than
// aborting the run.
func seriesPaths(logger *log.Logger, baseURL string, first, last dates.Date) []string {
	c := &apnicweb.Client{BaseURL: baseURL}
	rep, err := c.Report(context.Background(), last)
	if err != nil || len(rep.Rows) == 0 {
		logger.Printf("no series paths (%v); series traffic folds into reports", err)
		return nil
	}
	from := last.AddDays(-6)
	if from.DayNumber() < first.DayNumber() {
		from = first
	}
	var paths []string
	for i := 0; i < len(rep.Rows) && len(paths) < 8; i += max(1, len(rep.Rows)/8) {
		row := rep.Rows[i]
		paths = append(paths, fmt.Sprintf("/v1/series/AS%d?cc=%s&from=%s&to=%s",
			row.ASN, row.CC, from, last))
	}
	return paths
}

func secs(v float64) string {
	return time.Duration(v * float64(time.Second)).Round(10 * time.Microsecond).String()
}

// splitCCs parses the -live-countries list, dropping empty elements.
func splitCCs(s string) []string {
	var out []string
	for _, cc := range strings.Split(s, ",") {
		if cc = strings.TrimSpace(cc); cc != "" {
			out = append(out, strings.ToUpper(cc))
		}
	}
	return out
}
