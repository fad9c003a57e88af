// Command experiments regenerates the paper's tables and figures from the
// simulated datasets.
//
// Usage:
//
//	experiments [-seed N] [-run Table2,Figure4] [-parallel N] [-list]
//
// With no -run flag every experiment runs in paper order. Runners execute
// concurrently on a worker pool (-parallel, default GOMAXPROCS) but
// results stream to stdout in paper order and are byte-identical at every
// parallelism level; progress and timing go to stderr so stdout can be
// diffed across runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obsv"
)

func main() {
	seed := flag.Uint64("seed", 42, "world seed")
	run := flag.String("run", "", "comma-separated experiment names (default: all)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "max concurrent experiments (<=0 means GOMAXPROCS)")
	list := flag.Bool("list", false, "list available experiments and exit")
	md := flag.String("md", "", "write a paper-vs-measured markdown report to this file")
	metrics := flag.String("metrics", "", "write the lab metrics registry as JSON to this file on exit (\"-\" for stderr)")
	flag.Parse()

	if *list {
		for _, r := range experiments.Runners() {
			fmt.Printf("%-10s %s\n", r.Name, r.Desc)
		}
		return
	}

	var selected []experiments.Runner
	if *run == "" {
		selected = experiments.Runners()
	} else {
		for _, name := range strings.Split(*run, ",") {
			r, ok := experiments.RunnerByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", name)
				os.Exit(2)
			}
			selected = append(selected, r)
		}
	}

	fmt.Fprintf(os.Stderr, "building world (seed %d)...\n", *seed)
	start := time.Now()
	lab := experiments.NewLab(*seed)
	obsv.RegisterRuntime(lab.Metrics) // read when -metrics dumps the registry
	fmt.Fprintf(os.Stderr, "world ready in %v: %d orgs, %d routes\n\n", time.Since(start).Round(time.Millisecond),
		lab.W.Registry.Len(), lab.W.DB.Len())

	sweepStart := time.Now()
	recs := experiments.RunAll(lab, selected, *parallel, func(rec experiments.RunRecord) {
		experiments.WriteConsole(os.Stdout, rec.Result)
		fmt.Fprintf(os.Stderr, "%-16s %8v\n", rec.Runner.Name, rec.Elapsed.Round(time.Millisecond))
	})
	wall := time.Since(sweepStart)

	apnicDays, cdnDays := lab.CacheStats()
	fmt.Fprintf(os.Stderr, "\n%d experiments in %v wall (%v summed runner time, parallelism %d)\n",
		len(recs), wall.Round(time.Millisecond), experiments.TotalElapsed(recs).Round(time.Millisecond), *parallel)
	fmt.Fprintf(os.Stderr, "day caches: %d APNIC reports, %d CDN snapshots (each generated once)\n", apnicDays, cdnDays)

	if *md != "" {
		results := make([]*experiments.Result, len(recs))
		for i, rec := range recs {
			results[i] = rec.Result
		}
		f, err := os.Create(*md)
		if err == nil {
			err = experiments.WriteMarkdown(f, *seed, results)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "wrote", *md)
	}

	if *metrics != "" {
		// The registry carries per-runner wall time, the day-cache
		// request/generation/hit series the schedulers used to print ad
		// hoc, and the runtime gauges as of the dump.
		err := func() error {
			if *metrics == "-" {
				return lab.Metrics.WriteJSON(os.Stderr)
			}
			f, err := os.Create(*metrics)
			if err != nil {
				return err
			}
			if err := lab.Metrics.WriteJSON(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}()
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
}
