package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apnic"
	"repro/internal/apnicweb"
	"repro/internal/cdnlog"
	"repro/internal/dates"
	"repro/internal/itu"
	"repro/internal/loadgen"
	"repro/internal/stream"
)

// The live-ingest stream: record-level cdnlog replay of these countries,
// day by day from streamFrom, perOrg records per (country, org) and day.
// The stream (about 45 million records) is far longer than a run drains
// at a million records a second; the run's deadline stops the source, and
// a run whose source ran dry first is counted as failed.
var (
	streamCountries = []string{"US", "FR", "DE", "BR", "JP"}
	streamFrom      = dates.New(2024, 6, 1)
)

const (
	streamDays   = 200
	streamPerOrg = 1000
	botThreshold = 50 // the paper keeps bot scores >= 50
	// pollThink is the poller's pause between a reply and its next poll:
	// a dashboard refreshing a few hundred times a second, not a client
	// spinning on the server the stream shares its CPUs with.
	pollThink = 5 * time.Millisecond
	// liveCacheDays bounds the server's day caches; the live route does
	// not use them.
	liveCacheDays = 30
)

// liveEnv is the live-ingest set-up: a server with a rolling estimator
// attached, primed with the day before the stream starts so every poll
// has an estimate to serve.
type liveEnv struct {
	*serveEnv
	est *stream.RollingEstimator
	src *snapshotTimer // nil when untraced
}

func startLive(seed uint64, tr *Tracer) (*liveEnv, time.Duration, error) {
	env, build, err := startServer(seed, liveCacheDays, tr)
	if err != nil {
		return nil, 0, err
	}
	gen := apnic.New(env.w, itu.New(env.w, seed), seed)
	est := stream.NewRollingEstimator(gen)
	prime := streamFrom.AddDays(-1)
	for _, c := range gen.DayCounts(prime) {
		est.Observe(stream.Impression{Day: prime, CC: c.CC, ASN: c.ASN, Weight: c.Samples})
	}
	le := &liveEnv{serveEnv: env, est: est}
	var live apnicweb.LiveSource = est
	if tr != nil {
		le.src = &snapshotTimer{next: est, tr: tr, h: env.handler}
		live = le.src
	}
	env.srv.SetLive(live)
	return le, build, nil
}

// runLiveIngest is the live-ingest workload: a cdnlog record stream runs
// through the pipeline into the estimator while one closed-loop client
// polls /v1/live/{cc} conditionally.
func runLiveIngest(ctx context.Context, cfg Config, tr *Tracer) (*Result, error) {
	res := newResult()
	var env *liveEnv
	setups := &setupTimes{}
	for i := 0; i < setupRepeats; i++ {
		if env != nil {
			if err := env.stop(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		m := startMeter()
		e, build, err := startLive(cfg.Seed, tr)
		if err != nil {
			return nil, err
		}
		setups.add(m, build)
		env = e
	}
	defer env.stop()
	setups.report(res)

	sampler := cdnlog.NewSampler(env.w, cfg.Seed)
	src := &stream.SamplerSource{Sampler: sampler, Countries: streamCountries, From: streamFrom, Days: streamDays, PerOrg: streamPerOrg}
	enr := &stream.CDNEnricher{DB: env.w.RoutingDB(), Registry: env.w.Registry, BotThreshold: botThreshold}
	scfg := stream.Config{Source: src, Enrich: enr, Publisher: &stream.EstimatorSink{Est: env.est}, OnFull: stream.Block}
	var st *streamTimers
	if tr != nil {
		st = &streamTimers{tr: tr}
		scfg.Source = &timedSource{next: src, t: st}
		scfg.Enrich = &timedEnricher{next: enr, t: st}
		scfg.Publisher = &timedPublisher{next: scfg.Publisher, t: st}
	}
	p, err := stream.New(scfg)
	if err != nil {
		return nil, err
	}

	c := newClient(env.base, 1, tr)
	defer c.close()
	d := time.Duration(cfg.Seconds * float64(time.Second))
	runCtx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	before, err := env.counters()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	rt0 := readRuntime()
	m := startMeter()
	t0 := time.Now()
	ingestDone := make(chan error, 1)
	var ingestWall time.Duration
	go func() {
		err := p.Run(runCtx)
		ingestWall = time.Since(t0)
		ingestDone <- err
	}()
	rates := make(chan []float64, 1)
	go func() { rates <- windowRates(runCtx, p) }()
	polls, _ := ClosedLoop(ctx, 1, d, pollThink, func(ctx context.Context, _, i int) error {
		cc := streamCountries[i%len(streamCountries)]
		return c.fetch(ctx, loadgen.Request{Route: loadgen.RouteLive, Path: "/v1/live/" + cc, Conditional: true}, true)
	})
	if err := <-ingestDone; err != nil {
		return nil, err
	}
	windows := <-rates
	_, cpu := m.Elapsed()
	fmt.Printf("# ingest windows (events/s): %.0f\n", windows)
	rt1 := readRuntime()
	res.E2E["heap_bytes"] = heapAfterGC()
	after, err := env.counters()
	if err != nil {
		return nil, err
	}

	for _, s := range polls {
		res.check(s.Err == nil, "%v", s.Err)
	}
	ps := reduce(polls)
	stats := p.Stats()
	setLatency(res, ps.Latency)
	// CPU per accepted event covers the whole process: source, enrich,
	// publish, the poller and the server answering it.
	res.Info["cpu_per_op_s"] = cpu / float64(stats.Accepted)
	allocs := allocTotals{}
	allocs.add(rt0, rt1, stats.Accepted)
	allocs.report(res)
	// Poll latency follows the stream's phases (day turnover, collection
	// cycles), so the printed figures are medians over windows.
	res.Info["p50_s"], res.Info["p95_s"] = windowed(polls, latencyWindow)
	// The median window rate: a burst of interference from outside the
	// process moves a window or two, not the figure.
	res.Info["throughput_per_s"] = median(windows)
	res.Info["ingest_eps"] = res.Info["throughput_per_s"]
	res.Info["ingest_mean_eps"] = float64(stats.Accepted) / ingestWall.Seconds()
	res.Info["events_accepted"] = float64(stats.Accepted)
	res.Info["polls"] = float64(len(polls))

	// The figures are per-event costs of a stream that ran for the whole
	// timed phase; one that ran dry early would also count idle polling.
	res.check(ingestWall >= d-d/20, "the stream ran dry after %v of %v", ingestWall.Round(time.Millisecond), d)

	// Ledger checks, outside the timed phase.
	res.check(stats.Accepted == stats.Filtered+stats.Published+stats.PublishFailed,
		"stream ledger: accepted %d != filtered %d + published %d + failed %d",
		stats.Accepted, stats.Filtered, stats.Published, stats.PublishFailed)
	human := humanCount(env, sampler, stats.Accepted)
	res.check(human == stats.Published, "stream published %d impressions, the batch aggregator counts %d human requests over the same records",
		stats.Published, human)

	if tr != nil {
		res.Layer["world.build_s"] = median(setups.builds)
		res.Layer["stream.emit_wait_s"] = time.Duration(st.emit.Load()).Seconds()
		res.Layer["stream.enrich_s"] = time.Duration(st.enrich.Load()).Seconds()
		res.Layer["stream.publish_s"] = time.Duration(st.publish.Load()).Seconds()
		res.Layer["stream.filtered"] = float64(stats.Filtered)
		res.Layer["stream.batches"] = float64(stats.Batches)
		res.Layer["stream.published"] = float64(stats.Published)
		res.Layer["stream.snapshot_s"] = env.src.median()
		runtimeLayers(res, rt0, rt1)
		serverLayers(res, before, after, env.handler.take(), tr.Spans())
		res.Spans = tr.Spans()
		bypass(res, experimentLayers(), sourceLayers(), serveLayers())
	}
	return res, nil
}

// rateWindow is the interval over which live-ingest samples its accept
// rate; latencyWindow holds enough polls (about 300) for a p95 with ten
// samples beyond it.
const (
	rateWindow    = 500 * time.Millisecond
	latencyWindow = 2 * time.Second
)

// windowRates samples the pipeline's accepted count every rateWindow
// until ctx ends and returns the events per second of each full window.
func windowRates(ctx context.Context, p *stream.Pipeline) []float64 {
	tick := time.NewTicker(rateWindow)
	defer tick.Stop()
	var out []float64
	last, at := p.Stats().Accepted, time.Now()
	for {
		select {
		case <-ctx.Done():
			return out
		case now := <-tick.C:
			n := p.Stats().Accepted
			out = append(out, float64(n-last)/now.Sub(at).Seconds())
			last, at = n, now
		}
	}
}

// humanCount replays the first n records of the stream's source order
// through cdnlog.Aggregator and returns its human-request count: the
// batch path's answer for the records the pipeline accepted. The source
// order is a sequence of units, one per (day, country); workers replay
// whole units in order, each through its own aggregator, until the units
// done cover n records. Human counts are per record, so they add up
// across aggregators; the unit the n-th record falls in is replayed
// again, up to that record.
func humanCount(env *liveEnv, s *cdnlog.Sampler, n int64) int64 {
	nc := len(streamCountries)
	units := streamDays * nc
	replay := func(u int, limit int64) (records, human int64) {
		agg := cdnlog.NewAggregator(env.w.RoutingDB(), env.w.Registry, botThreshold)
		s.EachDayRecord(streamCountries[u%nc], streamFrom.AddDays(u/nc), streamPerOrg, func(rec cdnlog.Record) bool {
			if records >= limit {
				return false
			}
			records++
			agg.Add(rec)
			return true
		})
		for _, st := range agg.Stats() {
			human += st.Requests
		}
		return records, human
	}
	recs, humans := make([]int64, units), make([]int64, units)
	var next atomic.Int64
	var covered atomic.Int64 // records of the units replayed so far
	var wg sync.WaitGroup
	for w := 0; w < gomaxprocs(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for covered.Load() < n {
				u := int(next.Add(1) - 1)
				if u >= units {
					return
				}
				recs[u], humans[u] = replay(u, math.MaxInt64)
				covered.Add(recs[u])
			}
		}()
	}
	wg.Wait()
	var seen, human int64
	for u := 0; u < units && seen < n; u++ {
		if seen+recs[u] <= n {
			seen, human = seen+recs[u], human+humans[u]
			continue
		}
		_, h := replay(u, n-seen)
		return human + h
	}
	return human
}

// streamTimers accumulates busy time per stream stage, in nanoseconds.
// Per-event stages are too fine-grained for a span each; the publisher
// also records a span per batch.
type streamTimers struct {
	tr                    *Tracer
	emit, enrich, publish atomic.Int64
}

// timedSource times the source's calls into the admission edge: with the
// Block policy that is how long the source waited on a full queue.
type timedSource struct {
	next stream.Source
	t    *streamTimers
}

func (s *timedSource) Run(ctx context.Context, emit func(stream.Event) bool) error {
	return s.next.Run(ctx, func(ev stream.Event) bool {
		t0 := time.Now()
		ok := emit(ev)
		s.t.emit.Add(int64(time.Since(t0)))
		return ok
	})
}

type timedEnricher struct {
	next stream.Enricher
	t    *streamTimers
}

func (e *timedEnricher) Enrich(ev stream.Event) (stream.Impression, string) {
	t0 := time.Now()
	imp, reason := e.next.Enrich(ev)
	e.t.enrich.Add(int64(time.Since(t0)))
	return imp, reason
}

type timedPublisher struct {
	next stream.Publisher
	t    *streamTimers
}

func (p *timedPublisher) Publish(b stream.Batch) error {
	start := p.t.tr.Now()
	err := p.next.Publish(b)
	end := p.t.tr.Now()
	p.t.publish.Add(end - start)
	p.t.tr.Record(Span{Layer: "stream.publish", Start: start, End: end})
	return err
}

func (p *timedPublisher) Close() error { return p.next.Close() }

// snapshotTimer wraps the estimator as the server's LiveSource and times
// every Snapshot, as a span under the live request's handler span.
type snapshotTimer struct {
	next apnicweb.LiveSource
	tr   *Tracer
	h    *tracedHandler

	mu   sync.Mutex
	durs []float64
}

func (s *snapshotTimer) Snapshot() (d dates.Date, rev uint64, rep *apnic.Report, ok bool) {
	start := s.tr.Now()
	d, rev, rep, ok = s.next.Snapshot()
	end := s.tr.Now()
	s.tr.Record(Span{Parent: s.h.live.Load(), Layer: "stream.snapshot", Start: start, End: end})
	s.mu.Lock()
	s.durs = append(s.durs, time.Duration(end-start).Seconds())
	s.mu.Unlock()
	return d, rev, rep, ok
}

func (s *snapshotTimer) median() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return median(s.durs)
}
