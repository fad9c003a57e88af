package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/world"
)

// goldenSeed is the seed EXPERIMENTS.md was generated with.
const goldenSeed = 42

// minSweeps is the fewest sweeps a run makes, however short its seconds.
const minSweeps = 3

// runSweep is the sweep workload: a full experiments.RunAll at
// parallelism GOMAXPROCS, repeated on a fresh Lab each time, for the
// run's seconds. It drives the world, the generators and the experiments
// and never touches the server, the codecs or the stream.
func runSweep(ctx context.Context, cfg Config, tr *Tracer) (*Result, error) {
	res := newResult()
	par := gomaxprocs()
	var setups, setupWalls, walls, cpus, serials, effs, mallocs, allocBytes []float64
	perRunner := map[string][]float64{}
	var first []byte
	var lab *experiments.Lab

	var builds []float64
	if tr != nil {
		// World build on its own: NewLab builds the world inside.
		for i := 0; i < setupRepeats; i++ {
			t0 := time.Now()
			if _, err := world.Build(world.Config{Seed: cfg.Seed}); err != nil {
				return nil, err
			}
			builds = append(builds, time.Since(t0).Seconds())
		}
	}

	rt0 := readRuntime()
	start := time.Now()
	for rep := 0; rep < minSweeps || time.Since(start).Seconds() < cfg.Seconds; rep++ {
		lab = nil
		runtime.GC()
		m := startMeter()
		lab = experiments.NewLab(cfg.Seed)
		setupWall, setupCPU := m.Elapsed()
		setups, setupWalls = append(setups, setupCPU), append(setupWalls, setupWall)

		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		root, rootStart := tr.NewID(), tr.Now()
		m = startMeter()
		recs := experiments.RunAll(lab, tracedRunners(tr, root), par, nil)
		wall, cpu := m.Elapsed()
		tr.Record(Span{ID: root, Layer: "sweep", Name: fmt.Sprintf("rep%d", rep), Start: rootStart, End: tr.Now()})
		runtime.ReadMemStats(&ms1)

		walls, cpus = append(walls, wall), append(cpus, cpu)
		serial := experiments.TotalElapsed(recs).Seconds()
		serials = append(serials, serial)
		effs = append(effs, serial/(wall*float64(par)))
		mallocs = append(mallocs, float64(ms1.Mallocs-ms0.Mallocs))
		allocBytes = append(allocBytes, float64(ms1.TotalAlloc-ms0.TotalAlloc))
		for _, r := range recs {
			perRunner[r.Runner.Name] = append(perRunner[r.Runner.Name], r.Elapsed.Seconds())
		}

		md, err := markdown(cfg.Seed, recs)
		if err != nil {
			return nil, err
		}
		if rep == 0 {
			first = md
			res.check(true, "")
		} else {
			res.check(bytes.Equal(md, first), "sweep %d: experiment output differs from the first sweep's", rep)
		}
	}
	rt1 := readRuntime()
	res.E2E["heap_bytes"] = heapAfterGC()
	runtime.KeepAlive(lab)

	if err := checkGolden(res, cfg, first); err != nil {
		return nil, err
	}

	res.E2E["setup_s"] = median(setups)
	res.Info["cpu_per_op_s"] = median(cpus)
	res.E2E["alloc_bytes_per_op"] = median(allocBytes)
	res.E2E["allocs_per_op"] = median(mallocs)
	res.Info["setup_wall_s"] = median(setupWalls)
	// A run holds a handful of sweeps: no percentile above the median
	// has ten samples beyond it, so the tail rule reports the median.
	setLatency(res, summarize(append([]float64(nil), walls...)))
	res.Info["throughput_per_s"] = 1 / median(walls)
	res.Info["sweep_s"] = median(walls)

	if tr != nil {
		res.Layer["world.build_s"] = median(builds)
		for name, xs := range perRunner {
			res.Layer["experiments."+name+"_s"] = median(xs)
		}
		res.Layer["experiments.serial_s"] = median(serials)
		res.Layer["experiments.parallel_efficiency"] = median(effs)
		res.Layer["experiments.mallocs"] = median(mallocs)
		res.Layer["experiments.alloc_bytes"] = median(allocBytes)
		tr0, ts0, sr0, ss0 := lab.APNIC.MemoStats()
		res.Layer["apnic.memo_hit_ratio"] = ratio(float64(tr0+sr0-ts0-ss0), float64(tr0+sr0))
		runtimeLayers(res, rt0, rt1)
		res.Spans = tr.Spans()
		bypass(res, sourceLayers(), serveLayers(), streamLayers())
	}
	return res, nil
}

// tracedRunners returns the paper's runners, each wrapped in a span
// under the sweep's root span when tracing.
func tracedRunners(tr *Tracer, root uint64) []experiments.Runner {
	rs := experiments.Runners()
	if tr == nil {
		return rs
	}
	for i := range rs {
		run, name := rs[i].Run, rs[i].Name
		rs[i].Run = func(l *experiments.Lab) *experiments.Result {
			var out *experiments.Result
			tr.Time("experiments", name, root, func() { out = run(l) })
			return out
		}
	}
	return rs
}

// markdown renders a sweep the way cmd/experiments -md does.
func markdown(seed uint64, recs []experiments.RunRecord) ([]byte, error) {
	results := make([]*experiments.Result, len(recs))
	for i, r := range recs {
		results[i] = r.Result
	}
	var buf bytes.Buffer
	if err := experiments.WriteMarkdown(&buf, seed, results); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkGolden compares the seed-42 report with the committed
// EXPERIMENTS.md, byte for byte. At another seed it runs one extra
// seed-42 sweep, outside the timed phase.
func checkGolden(res *Result, cfg Config, md []byte) error {
	want, err := os.ReadFile(cfg.Golden)
	if err != nil {
		res.check(false, "golden report: %v", err)
		return nil
	}
	if cfg.Seed != goldenSeed {
		lab := experiments.NewLab(goldenSeed)
		if md, err = markdown(goldenSeed, experiments.RunAll(lab, experiments.Runners(), gomaxprocs(), nil)); err != nil {
			return err
		}
	}
	res.check(bytes.Equal(md, want), "seed-%d experiment report differs from %s", goldenSeed, cfg.Golden)
	return nil
}
