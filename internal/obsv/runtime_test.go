package obsv

import (
	"bytes"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestRegisterRuntime scrapes a registry once and finds every runtime
// gauge with a positive value. A GC runs first, so the live-heap and
// cycle gauges have a completed cycle to report.
func TestRegisterRuntime(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	runtime.GC()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	values := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		name, v, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		values[name] = x
	}
	for _, g := range runtimeGauges {
		if v, ok := values[g.name]; !ok || !(v > 0) {
			t.Errorf("%s = %v (present %v), want a positive value:\n%s", g.name, v, ok, buf.String())
		}
		// perfbench sums every *_cache_days and *_cache_evictions series.
		if strings.HasSuffix(g.name, "_cache_days") || strings.HasSuffix(g.name, "_cache_evictions") {
			t.Errorf("%s collides with the cache series suffixes", g.name)
		}
	}
	if v := values["runtime_gomaxprocs"]; v != float64(runtime.GOMAXPROCS(0)) {
		t.Errorf("runtime_gomaxprocs = %v, want %d", v, runtime.GOMAXPROCS(0))
	}
}
