package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dates"
	"repro/internal/loadgen"
)

// setupRepeats is how often a run repeats its set-up; setup_s is the
// median.
const setupRepeats = 3

// Serve-hot ladder: offered rates in requests per second, ascending.
// The first rung is the reference rate whose latencies are p50_s and
// p95_s. On 2 CPUs the knee of the p99 SLO lay between 800 and 1200 rps
// and moved across that range with the seed and with the host's speed,
// so the rungs around it are an octave apart: 600 held (p99 10-28 ms)
// on every seed measured, and 1200 saturated on most.
var ladder = []float64{400, 600, 1200}

// referenceShare is the part of a run's seconds the reference rung gets;
// the higher rungs share the rest. The reference rung's latency and
// cpu_per_op_s figures move from seed to seed with the share of costly
// renders in its mix, less the more requests it averages.
const referenceShare = 0.75

// hotCacheDays holds the whole served window; coldCacheDays is far
// smaller than serve-cold's working set of 366 days x 7 datasets.
const (
	hotCacheDays  = 366
	coldCacheDays = 4
)

// hotModel is the loadgen access model of the serve-hot workload:
// Zipf 1.2 over datasets, a 7-day recency half-life, half the requests
// offering gzip and 30% of repeats revalidating.
func hotModel(series []string) loadgen.ModelConfig {
	m := loadgen.DefaultModel(windowFirst, windowLast)
	m.SeriesPaths = series
	return m
}

// coldModel draws days uniformly over the window and never revalidates:
// archive crawlers, each waiting for its reply.
func coldModel() loadgen.ModelConfig {
	m := loadgen.DefaultModel(windowFirst, windowLast)
	m.HotDayHalfLife = 0
	m.CondFraction = 0
	return m
}

// seriesPaths derives per-AS series paths from the last served APNIC
// day, so the series share of the mix queries rows that exist.
func seriesPaths(env *serveEnv) ([]string, error) {
	f, err := env.srv.Registry().Frame("apnic", windowLast)
	if err != nil {
		return nil, err
	}
	as, cc := f.Col("AS"), f.Col("CC")
	if as == nil || cc == nil || f.Rows() == 0 {
		return nil, fmt.Errorf("apnic frame for %s has no AS/CC rows", windowLast)
	}
	from := windowLast.AddDays(-6)
	var paths []string
	for i := 0; i < f.Rows() && len(paths) < 8; i += max(1, f.Rows()/8) {
		paths = append(paths, fmt.Sprintf("/v1/series/AS%d?cc=%s&from=%s&to=%s", as.Ints[i], cc.Strs[i], from, windowLast))
	}
	return paths, nil
}

// plan draws n requests from one model stream.
func plan(seed uint64, cfg loadgen.ModelConfig, n int) ([]loadgen.Request, error) {
	m, err := loadgen.NewModel(seed, cfg)
	if err != nil {
		return nil, err
	}
	reqs := make([]loadgen.Request, n)
	for i := range reqs {
		reqs[i] = m.Next()
	}
	return reqs, nil
}

// setupTimes are a workload's repeated set-ups, in seconds: CPU time
// (setup_s is their median), wall time, and the world build's wall time.
type setupTimes struct{ cpu, wall, builds []float64 }

func (t *setupTimes) add(m Meter, build time.Duration) {
	wall, cpu := m.Elapsed()
	t.cpu, t.wall, t.builds = append(t.cpu, cpu), append(t.wall, wall), append(t.builds, build.Seconds())
}

// report sets setup_s, the median CPU time of a set-up, and the median
// wall time as a detail line.
func (t *setupTimes) report(res *Result) {
	res.E2E["setup_s"] = median(t.cpu)
	res.Info["setup_wall_s"] = median(t.wall)
}

// setupServers starts the server setupRepeats times, keeping the last,
// and returns it with the times of every start.
func setupServers(seed uint64, cacheDays int, tr *Tracer) (*serveEnv, *setupTimes, error) {
	var env *serveEnv
	times := &setupTimes{}
	for i := 0; i < setupRepeats; i++ {
		if env != nil {
			if err := env.stop(); err != nil {
				return nil, nil, err
			}
			env = nil
		}
		runtime.GC()
		m := startMeter()
		e, build, err := startServer(seed, cacheDays, tr)
		if err != nil {
			return nil, nil, err
		}
		times.add(m, build)
		env = e
	}
	return env, times, nil
}

// runServeHot is the serve-hot workload: an open loop at the ladder's
// fixed rates against a server whose caches were warmed with the same
// access model, so nearly every request is a cache hit.
func runServeHot(ctx context.Context, cfg Config, tr *Tracer) (*Result, error) {
	res := newResult()
	env, setups, err := setupServers(cfg.Seed, hotCacheDays, tr)
	if err != nil {
		return nil, err
	}
	defer env.stop()
	workers := gomaxprocs()
	c := newClient(env.base, workers, tr)
	defer c.close()

	// The run's requests, rung by rung, from one model stream.
	counts := make([]int, len(ladder))
	total := 0
	for i, rate := range ladder {
		share := referenceShare
		if i > 0 {
			share = (1 - referenceShare) / float64(len(ladder)-1)
		}
		counts[i] = max(1, int(rate*cfg.Seconds*share))
		total += counts[i]
	}
	warmMeter := startMeter()
	series, err := seriesPaths(env)
	if err != nil {
		return nil, err
	}
	reqs, err := plan(cfg.Seed, hotModel(series), total)
	if err != nil {
		return nil, err
	}
	// Warm-up: fetch every distinct (path, encoding) of the run once,
	// which also records the reference body of each for the checks.
	warm := distinct(reqs)
	missed := missedKeys(warm)
	warmUp(ctx, res, c, warm, workers)
	warmWall, warmCPU := warmMeter.Elapsed()
	setups.report(res)
	res.E2E["setup_s"] += warmCPU
	res.Info["setup_wall_s"] += warmWall
	res.Info["warmup_s"] = warmWall
	res.Info["warmup_requests"] = float64(len(warm))
	if env.handler != nil {
		// The warm-up is set-up, not part of the measured view.
		env.handler.take()
		tr.Reset()
	}

	before, err := env.counters()
	if err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	var steps []Step
	var ref loopStats
	// Allocations per request do not depend on the rate, so they are
	// counted over every rung: more requests, a steadier average over
	// the mix.
	var allocs allocTotals
	offset := 0
	for i, rate := range ladder {
		batch := reqs[offset : offset+counts[i]]
		offset += counts[i]
		interval := time.Duration(float64(time.Second) / rate)
		// Every rung starts on a fresh GC cycle, so the collections it
		// pays for depend on what it allocates, not on the rung before.
		runtime.GC()
		r0 := readRuntime()
		m := startMeter()
		samples, _ := OpenLoop(ctx, len(batch), interval, workers, func(ctx context.Context, _, j int) error {
			return c.fetch(ctx, batch[j], true)
		})
		for _, s := range samples {
			res.check(s.Err == nil, "%v", s.Err)
		}
		_, cpu := m.Elapsed()
		r1 := readRuntime()
		allocs.add(r0, r1, int64(len(samples)))
		st := reduce(samples)
		step := Step{Offered: rate, Achieved: ratio(float64(len(samples)), st.Span.Seconds()), Latency: st.Latency, Failed: st.Failed}
		step.WaitEarly, step.WaitLate = quarterWaits(samples)
		steps = append(steps, step)
		ok, why := step.Verdict()
		fmt.Printf("# rung %4.0f rps: achieved %.1f rps, n=%d, cpu per request %.3f ms, latency ms p50 %.3f p75 %.3f p90 %.3f p95 %.3f p%g %.3f, queue wait p50 %.3f ms, lateness p50 %.3f p99 %.3f ms: %s\n",
			rate, step.Achieved, st.Latency.N, cpu/float64(len(samples))*1e3, st.Latency.P50*1e3, quantile(st.Latency.sorted, 0.75)*1e3, quantile(st.Latency.sorted, 0.9)*1e3,
			quantile(st.Latency.sorted, 0.95)*1e3, st.Latency.TailQ*100, st.Latency.P99*1e3,
			st.QueueWait.P50*1e3, st.Late.P50*1e3, st.Late.P99*1e3, why)
		if i == 0 {
			ref = st
			res.Info["cpu_per_op_s"] = cpu / float64(len(samples))
		}
		if !ok {
			break // the ladder stops at the first rung that misses
		}
	}
	rt1 := readRuntime()
	res.E2E["heap_bytes"] = heapAfterGC()
	allocs.report(res)
	after, err := env.counters()
	if err != nil {
		return nil, err
	}

	setLatency(res, ref.Latency)
	// An open loop completes what it is offered until it saturates: the
	// throughput is the reference rung's achieved rate. The capacity
	// rung is printed beside it.
	res.Info["throughput_per_s"] = steps[0].Achieved
	res.Info["capacity_rps"] = 0
	if i := capacity(steps); i >= 0 {
		res.Info["capacity_rps"] = steps[i].Offered
	}
	res.Info["reference_rps"] = ladder[0]
	res.Info["driver.lateness_p50_s"] = ref.Late.P50
	res.Info["driver.lateness_p99_s"] = ref.Late.P99
	res.Info["driver.queue_wait_p50_s"] = ref.QueueWait.P50

	if tr != nil {
		res.Layer["world.build_s"] = median(setups.builds)
		res.Layer["driver.lateness_p99_s"] = ref.Late.P99
		res.Layer["driver.queue_wait_p50_s"] = ref.QueueWait.P50
		res.Layer["driver.capacity_rps"] = res.Info["capacity_rps"]
		res.Layer["binfmt.decode_s"] = c.decodeTime("binfmt").Seconds()
		res.Layer["framez.decode_s"] = c.decodeTime("framez").Seconds()
		runtimeLayers(res, rt0, rt1)
		spans := tr.Spans()
		serverLayers(res, before, after, env.handler.take(), spans)
		if err := layerPass(res, env, missed, tr); err != nil {
			return nil, err
		}
		res.Spans = tr.Spans()
		bypass(res, experimentLayers(), streamLayers())
	}
	return res, nil
}

// runServeCold is the serve-cold workload: a closed loop of one client
// per CPU drawing days uniformly, against day caches far smaller than
// the working set, so nearly every request generates, hashes, encodes
// and compresses.
func runServeCold(ctx context.Context, cfg Config, tr *Tracer) (*Result, error) {
	res := newResult()
	env, setups, err := setupServers(cfg.Seed, coldCacheDays, tr)
	if err != nil {
		return nil, err
	}
	defer env.stop()
	setups.report(res)
	workers := gomaxprocs()
	c := newClient(env.base, workers, tr)
	defer c.close()

	// One model stream per worker; each stream is longer than any run
	// can consume and is drawn before timing.
	streams := make([][]loadgen.Request, workers)
	perWorker := int(cfg.Seconds*1000) + 100
	for w := range streams {
		if streams[w], err = plan(cfg.Seed*1000003+uint64(w), coldModel(), perWorker); err != nil {
			return nil, err
		}
	}
	before, err := env.counters()
	if err != nil {
		return nil, err
	}
	next := make([]int, workers)
	runtime.GC()
	rt0 := readRuntime()
	heap := sampleLiveHeap()
	m := startMeter()
	samples, wall := ClosedLoop(ctx, workers, time.Duration(cfg.Seconds*float64(time.Second)), 0, func(ctx context.Context, w, _ int) error {
		r := streams[w][next[w]%len(streams[w])]
		next[w]++
		return c.fetch(ctx, r, true)
	})
	_, cpu := m.Elapsed()
	rt1 := readRuntime()
	// What the 4-day caches hold at any moment depends on the last few
	// requests, so one reading at the end moves with the seed's tail:
	// the figure is the median live heap over the loop.
	res.E2E["heap_bytes"] = heap()
	res.Info["heap_after_gc_bytes"] = heapAfterGC()
	after, err := env.counters()
	if err != nil {
		return nil, err
	}
	for _, s := range samples {
		res.check(s.Err == nil, "%v", s.Err)
	}
	st := reduce(samples)
	setLatency(res, st.Latency)
	res.Info["cpu_per_op_s"] = cpu / float64(len(samples))
	cold := allocTotals{}
	cold.add(rt0, rt1, int64(len(samples)))
	cold.report(res)
	res.Info["throughput_per_s"] = float64(len(samples)) / wall.Seconds()
	res.Info["throughput_rps"] = res.Info["throughput_per_s"]

	if tr != nil {
		var sent []loadgen.Request
		for w := range streams {
			sent = append(sent, streams[w][:min(next[w], len(streams[w]))]...)
		}
		res.Layer["world.build_s"] = median(setups.builds)
		res.Layer["binfmt.decode_s"] = c.decodeTime("binfmt").Seconds()
		res.Layer["framez.decode_s"] = c.decodeTime("framez").Seconds()
		runtimeLayers(res, rt0, rt1)
		serverLayers(res, before, after, env.handler.take(), tr.Spans())
		if err := layerPass(res, env, missedKeys(sent), tr); err != nil {
			return nil, err
		}
		res.Spans = tr.Spans()
		bypass(res, experimentLayers(), streamLayers(), serveLayers()) // driver.*: a closed loop has no schedule
	}
	return res, nil
}

// warmUp fetches reqs once each, plainly, with workers clients, and
// checks every response.
func warmUp(ctx context.Context, res *Result, c *client, reqs []loadgen.Request, workers int) {
	var next atomic.Int64
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
				errs[i] = c.fetch(ctx, reqs[i], false)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		res.check(err == nil, "warm-up: %v", err)
	}
}

// distinct returns the first request for every (path, encoding), in
// order of first appearance.
func distinct(reqs []loadgen.Request) []loadgen.Request {
	seen := map[string]bool{}
	var out []loadgen.Request
	for _, r := range reqs {
		k := bodyKey(r)
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// dayKey is one dataset-day.
type dayKey struct {
	dataset string
	day     dates.Date
}

// missedKeys returns the distinct dataset-days of the report requests,
// in order of first appearance: the keys a cold cache misses on.
func missedKeys(reqs []loadgen.Request) []dayKey {
	seen := map[dayKey]bool{}
	var out []dayKey
	for _, r := range reqs {
		k, ok := reportKey(r.Path)
		if ok && !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// reportKey parses /v1/{dataset}/reports/{date}[.ext] and the legacy
// /v1/reports/{date}.csv.
func reportKey(path string) (dayKey, bool) {
	rest, ok := strings.CutPrefix(path, "/v1/")
	if !ok {
		return dayKey{}, false
	}
	parts := strings.Split(rest, "/")
	var ds, day string
	switch {
	case len(parts) == 2 && parts[0] == "reports":
		ds, day = "apnic", parts[1]
	case len(parts) == 3 && parts[1] == "reports":
		ds, day = parts[0], parts[2]
	default:
		return dayKey{}, false
	}
	if i := strings.IndexByte(day, '.'); i >= 0 {
		day = day[:i]
	}
	d, err := dates.Parse(day)
	if err != nil {
		return dayKey{}, false
	}
	return dayKey{ds, d}, true
}

// quarterWaits returns the median queue wait of the first and the last
// quarter of a rung's samples, in schedule order.
func quarterWaits(samples []Sample) (early, late float64) {
	ordered := append([]Sample(nil), samples...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Due < ordered[j].Due })
	q := len(ordered) / 4
	if q == 0 {
		return 0, 0
	}
	waits := func(ss []Sample) float64 {
		xs := make([]float64, len(ss))
		for i, s := range ss {
			xs[i] = s.QueueWait().Seconds()
		}
		return median(xs)
	}
	return waits(ordered[:q]), waits(ordered[len(ordered)-q:])
}
