package obsv

import (
	"math"
	"runtime/metrics"
)

// runtimeGauges maps the runtime gauges RegisterRuntime adds to the
// runtime/metrics samples they read.
var runtimeGauges = [...]struct{ name, sample string }{
	{"runtime_heap_live_bytes", "/gc/heap/live:bytes"},
	{"runtime_heap_objects", "/gc/heap/objects:objects"},
	{"runtime_goroutines", "/sched/goroutines:goroutines"},
	{"runtime_gomaxprocs", "/sched/gomaxprocs:threads"},
	{"runtime_gc_cycles_total", "/gc/cycles/total:gc-cycles"},
}

// RegisterRuntime adds gauges for the process's runtime state, read from
// runtime/metrics at scrape time, so a scrape shows what is resident
// beside the caches that explain it: the heap marked live by the last
// GC, heap objects, goroutines, GOMAXPROCS and completed GC cycles.
// Reading them stops nothing, and nothing is read between scrapes.
func RegisterRuntime(r *Registry) {
	for _, g := range runtimeGauges {
		r.GaugeFunc(g.name, func() float64 { return readRuntime(g.sample) })
	}
}

// readRuntime reads one runtime/metrics sample as a float; a name the
// running toolchain does not know reads NaN.
func readRuntime(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	switch v := s[0].Value; v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	}
	return math.NaN()
}
