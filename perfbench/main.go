// Command perfbench is the repository benchmark. It runs one workload
// against the repository's packages through their public functions,
// checks the outputs, and prints every metric by name with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with -trace 1 the workload runs twice, untraced and then traced, and
// the metrics are the per-layer ones, including the tracing overhead.
//
// Usage (from the repository root; run.py builds and runs it):
//
//	perfbench -workload sweep|serve-hot|serve-cold|live-ingest -seed N -seconds S -trace 0|1 [-record FILE]
//	perfbench -compare old.json new.json
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Paths, relative to the repository root the command runs from.
const (
	specPath   = "BENCHMARK.json" // metric names and units
	goldenPath = "EXPERIMENTS.md" // the committed seed-42 experiment report
	traceDir   = ".bench_build/traces"
)

// Config is what every workload receives.
type Config struct {
	Seed    uint64
	Seconds float64
	Golden  string // path of the committed EXPERIMENTS.md
}

// Result is one pass of a workload: its checks and its metrics.
type Result struct {
	Attempted int64
	Failed    int64
	Problems  []string

	E2E   map[string]float64 // end-to-end metrics, by BENCHMARK.json name
	Info  map[string]float64 // detail lines: the same figures under workload-specific names
	Layer map[string]float64 // per-layer metrics (traced pass)
	Spans []Span
}

func newResult() *Result {
	return &Result{E2E: map[string]float64{}, Info: map[string]float64{}, Layer: map[string]float64{}}
}

// check counts one checked operation and records it when it failed.
func (r *Result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if ok {
		return
	}
	r.Failed++
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// Workload runs one measured pass. A nil tracer is the untraced mode.
type Workload func(ctx context.Context, cfg Config, tr *Tracer) (*Result, error)

var workloads = map[string]Workload{
	"sweep":       runSweep,
	"serve-hot":   runServeHot,
	"serve-cold":  runServeCold,
	"live-ingest": runLiveIngest,
}

// Spec is the part of BENCHMARK.json the command reads: the metric names
// it must print and their units.
type Spec struct {
	EndToEnd []SpecMetric `json:"end_to_end"`
	PerLayer []SpecMetric `json:"per_layer"`
}

// SpecMetric is one declared metric.
type SpecMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "sweep, serve-hot, serve-cold or live-ingest")
	seed := flag.Uint64("seed", 1, "workload seed")
	secs := flag.Float64("seconds", 10, "measured seconds per pass")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	record := flag.String("record", "", "also write the run's record (shape, seed, metrics) to this file")
	compare := flag.Bool("compare", false, "compare two record files given as arguments")
	flag.Parse()

	if *compare {
		os.Exit(compareMain(flag.Args()))
	}
	run, ok := workloads[*workload]
	if !ok {
		fatalf("unknown -workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *secs <= 0 {
		fatalf("-seconds must be positive")
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		fatalf("%v", err)
	}
	cfg := Config{Seed: *seed, Seconds: *secs, Golden: goldenPath}
	shape := currentShape()
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%d %s\n", *workload, *seed, *secs, *trace, shape)

	ctx := context.Background()
	res, err := run(ctx, cfg, nil)
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	want, values := sp.EndToEnd, res.E2E
	if *trace == 1 {
		tr := NewTracer()
		traced, err := run(ctx, cfg, tr)
		if err != nil {
			fatalf("%s traced: %v", *workload, err)
		}
		addOverhead(traced, res)
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err := WriteSpans(path, traced.Spans); err != nil {
			fatalf("writing spans: %v", err)
		}
		fmt.Printf("# spans: %d written to %s\n", len(traced.Spans), path)
		res.Attempted += traced.Attempted
		res.Failed += traced.Failed
		res.Problems = append(res.Problems, traced.Problems...)
		want, values = sp.PerLayer, traced.Layer
	}

	for _, p := range res.Problems {
		fmt.Printf("# FAIL %s\n", p)
	}
	units := map[string]string{}
	for _, m := range append(sp.EndToEnd, sp.PerLayer...) {
		units[m.Name] = m.Unit
	}
	printLines(res, values, *trace == 1, units)

	metrics := map[string]Metric{}
	var missing []string
	for _, m := range want {
		v, ok := values[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		metrics[m.Name] = Metric{Value: finite(v), Unit: m.Unit}
	}
	if len(missing) > 0 {
		fatalf("%s produced no value for %s", *workload, strings.Join(missing, ", "))
	}
	rec := Record{Workload: *workload, Seed: *seed, Seconds: *secs, Trace: *trace, Shape: shape, Metrics: metrics}
	if *record != "" {
		if err := rec.write(*record); err != nil {
			fatalf("writing record: %v", err)
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{res.Failed == 0 && res.Attempted > 0, res.Attempted, res.Failed, metrics})
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(out))
}

// addOverhead records how much tracing slowed the traced pass, as the
// ratio of traced to untraced figures minus one.
func addOverhead(traced, plain *Result) {
	for _, name := range []string{"cpu_per_op_s", "p50_s", "throughput_per_s"} {
		traced.Layer["trace.overhead."+name] = ratio(traced.Info[name], plain.Info[name]) - 1
	}
	traced.Layer["trace.spans"] = float64(len(traced.Spans))
	for layer, s := range SelfTimes(traced.Spans) {
		traced.Layer["trace.self_s."+layer] = s
	}
	for _, layer := range spanLayers {
		if _, ok := traced.Layer["trace.self_s."+layer]; !ok {
			traced.Layer["trace.self_s."+layer] = 0
		}
	}
}

// printLines prints every figure of the run as "metric name value unit"
// lines: the end-to-end metrics, their workload-specific aliases, and in
// trace mode the per-layer metrics.
func printLines(res *Result, layer map[string]float64, traced bool, units map[string]string) {
	unit := func(name string) string {
		if u, ok := units[name]; ok {
			return u
		}
		return unitOf(name)
	}
	fmt.Printf("metric fail_ratio %.6g ratio\n", ratio(float64(res.Failed), float64(res.Attempted)))
	for _, m := range sortedNames(res.E2E) {
		fmt.Printf("metric %s %.6g %s\n", m, res.E2E[m], unit(m))
	}
	for _, m := range sortedNames(res.Info) {
		fmt.Printf("metric %s %.6g %s\n", m, res.Info[m], unit(m))
	}
	if traced {
		for _, m := range sortedNames(layer) {
			fmt.Printf("layer %s %.6g %s\n", m, layer[m], unit(m))
		}
	}
}

// unitOf derives the unit of a detail figure, which BENCHMARK.json does
// not declare, from its name's suffix.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_rps"), strings.HasSuffix(name, "_per_s"), strings.HasSuffix(name, "_eps"):
		return "1/s"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_quantile"):
		return "quantile"
	case strings.HasSuffix(name, "bytes"), strings.HasSuffix(name, "bytes_out"):
		return "B"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "efficiency"), strings.Contains(name, "overhead"):
		return "ratio"
	}
	return "count"
}

func sortedNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func workloadNames() []string {
	var names []string
	for k := range workloads {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func loadSpec(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark definition: %w", err)
	}
	var sp Spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		return nil, fmt.Errorf("%s declares no metrics", path)
	}
	return &sp, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// gomaxprocs is the worker count every loop and the sweep use: one
// process, at most one client worker per CPU.
func gomaxprocs() int { return runtime.GOMAXPROCS(0) }
