package apnicweb

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/dates"
)

// TestBoundedCacheEviction serves more days than the cache capacity and
// checks the caches stay bounded, evictions are counted on /metrics, and
// an evicted day regenerates byte-identically.
func TestBoundedCacheEviction(t *testing.T) {
	const capacity = 4
	srv := NewMultiServer(testW, 11, dates.New(2024, 1, 1), dates.New(2024, 12, 31), capacity)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(d dates.Date) []byte {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/v1/reports/" + d.String() + ".csv")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", d, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	first := get(dates.New(2024, 3, 1))
	for i := 1; i < capacity*3; i++ { // push the first day out
		get(dates.New(2024, 3, 1).AddDays(i))
	}
	frames, _ := srv.Registry().FrameCacheStats("apnic")
	if frames.Len > capacity {
		t.Fatalf("frame cache holds %d apnic days, capacity %d", frames.Len, capacity)
	}
	if n := srv.csv.Len(); n > capacity {
		t.Fatalf("csv cache holds %d days, capacity %d", n, capacity)
	}
	if frames.Evictions == 0 {
		t.Fatal("no apnic frame evictions after serving 3x capacity")
	}

	// Determinism across eviction: the refilled day must be identical.
	if again := get(dates.New(2024, 3, 1)); !bytes.Equal(again, first) {
		t.Fatal("evicted day regenerated with different bytes")
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, name := range []string{
		`source_frame_cache_evictions{dataset="apnic"}`,
		"apnicweb_csv_cache_evictions",
		"apnicweb_index_cache_evictions",
		"apnicweb_cache_capacity_days",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("metric %s missing from /metrics", name)
		}
	}
	if !strings.Contains(text, fmt.Sprintf("apnicweb_cache_capacity_days %d", capacity)) {
		t.Errorf("capacity gauge does not report %d:\n%s", capacity, text)
	}
}

// TestBoundedCacheHammer pounds a small-capacity server from many
// goroutines over a key space larger than the cache — the -race workout
// for concurrent serving with in-flight eviction on the full HTTP path.
func TestBoundedCacheHammer(t *testing.T) {
	const capacity, days, goroutines, reqs = 3, 12, 8, 30
	srv := NewMultiServer(testW, 11, dates.New(2024, 1, 1), dates.New(2024, 12, 31), capacity)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Reference bodies, fetched serially first.
	want := make(map[dates.Date][]byte, days)
	for i := 0; i < days; i++ {
		d := dates.New(2024, 6, 1).AddDays(i)
		resp, err := ts.Client().Get(ts.URL + "/v1/reports/" + d.String() + ".csv")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		want[d] = body
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reqs; i++ {
				d := dates.New(2024, 6, 1).AddDays((g*5 + i) % days)
				resp, err := ts.Client().Get(ts.URL + "/v1/reports/" + d.String() + ".csv")
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(body, want[d]) {
					t.Errorf("day %s served different bytes under pressure", d)
					return
				}
			}
		}()
	}
	wg.Wait()

	frames, _ := srv.Registry().FrameCacheStats("apnic")
	if frames.Len > capacity {
		t.Fatalf("frame cache holds %d apnic days, capacity %d", frames.Len, capacity)
	}
	if frames.Evictions == 0 {
		t.Fatal("hammer produced no apnic frame evictions")
	}
}
