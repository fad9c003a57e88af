package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dates"
	"repro/internal/loadgen"
	"repro/internal/source"
	"repro/internal/source/binfmt"
)

func frameBin(t *testing.T) []byte {
	t.Helper()
	f := source.NewFrame("apnic", dates.New(2024, 3, 1))
	as := f.AddInts("AS")
	cc := f.AddStrings("CC")
	users := f.AddFloats("Estimated Users")
	for i := 0; i < 64; i++ {
		as.Ints = append(as.Ints, int64(64500+i))
		cc.Strs = append(cc.Strs, "FR")
		users.Floats = append(users.Floats, float64(i)*1.5)
	}
	b, err := binfmt.Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// serve answers the n-th request (from 0) with respond(n).
func serve(t *testing.T, respond func(n int, w http.ResponseWriter, r *http.Request)) *client {
	t.Helper()
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		respond(int(n.Add(1)-1), w, r)
	}))
	t.Cleanup(ts.Close)
	c := newClient(ts.URL, 1, nil)
	t.Cleanup(c.close)
	return c
}

var binPlan = loadgen.Request{Route: loadgen.RouteReportBin, Path: "/v1/apnic/reports/2024-03-01.bin", Conditional: true}

// A .bin body that changes by one byte between two responses is caught,
// and so is one that is corrupt the first time it is seen.
func TestVerifierCatchesCorruptBody(t *testing.T) {
	good := frameBin(t)
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0x40

	c := serve(t, func(n int, w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", `"abc.bin"`)
		if n == 0 {
			w.Write(good)
		} else {
			w.Write(bad)
		}
	})
	if err := c.fetch(context.Background(), binPlan, false); err != nil {
		t.Fatalf("good body rejected: %v", err)
	}
	err := c.fetch(context.Background(), binPlan, false)
	if err == nil || !strings.Contains(err.Error(), "body changed") {
		t.Fatalf("corrupted repeat body: err = %v, want a body-changed failure", err)
	}

	fresh := serve(t, func(_ int, w http.ResponseWriter, _ *http.Request) { w.Write(bad) })
	if err := fresh.fetch(context.Background(), binPlan, false); err == nil {
		t.Fatal("corrupt .bin body decoded without error")
	}
	if fresh.decodeTime("binfmt") <= 0 {
		t.Error("decode time of the first-seen body not recorded")
	}
}

func TestVerifierCatchesChangedCSV(t *testing.T) {
	plan := loadgen.Request{Route: loadgen.RouteReportCSV, Path: "/v1/cdn/reports/2024-03-01.csv"}
	c := serve(t, func(n int, w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("ETag", `"h.csv"`)
		if n == 0 {
			w.Write([]byte("a,b\n1,2\n"))
		} else {
			w.Write([]byte("a,b\n1,3\n"))
		}
	})
	if err := c.fetch(context.Background(), plan, true); err != nil {
		t.Fatal(err)
	}
	if err := c.fetch(context.Background(), plan, true); err == nil {
		t.Fatal("a CSV body that changed between responses passed")
	}
}

// A 304 is valid only as the answer to an If-None-Match naming the
// current ETag; a 200 must not answer a matching one.
func TestVerifierConditionalContract(t *testing.T) {
	body := frameBin(t)
	for _, tc := range []struct {
		name    string
		respond func(n int, w http.ResponseWriter, r *http.Request)
		want    string
	}{
		{"304 without If-None-Match", func(n int, w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusNotModified)
		}, "without If-None-Match"},
		{"304 for a stale validator", func(n int, w http.ResponseWriter, r *http.Request) {
			if n == 0 {
				w.Header().Set("ETag", `"v1"`)
				w.Write(body)
				return
			}
			w.Header().Set("ETag", `"v2"`)
			w.WriteHeader(http.StatusNotModified)
		}, "current ETag"},
		{"200 despite a matching validator", func(n int, w http.ResponseWriter, r *http.Request) {
			w.Header().Set("ETag", `"v1"`)
			w.Write(body)
		}, "matches"},
		{"server error", func(n int, w http.ResponseWriter, r *http.Request) {
			if n == 0 {
				w.Header().Set("ETag", `"v1"`)
				w.Write(body)
				return
			}
			http.Error(w, "boom", http.StatusInternalServerError)
		}, "status 500"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := serve(t, tc.respond)
			var err error
			for i := 0; i < 2 && err == nil; i++ {
				err = c.fetch(context.Background(), binPlan, i > 0)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}

func TestVerifierAcceptsRevalidation(t *testing.T) {
	body := frameBin(t)
	c := serve(t, func(n int, w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", `"v1"`)
		if r.Header.Get("If-None-Match") == `"v1"` {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Write(body)
	})
	for i := 0; i < 3; i++ {
		if err := c.fetch(context.Background(), binPlan, true); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
}

func TestVerifierRejectsGzippedBinz(t *testing.T) {
	plan := loadgen.Request{Route: loadgen.RouteReportBinz, Path: "/v1/apnic/reports/2024-03-01.binz", Gzip: true}
	c := serve(t, func(_ int, w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Encoding", "gzip")
		w.Write([]byte{0x1f, 0x8b})
	})
	if err := c.fetch(context.Background(), plan, false); err == nil {
		t.Fatal("a gzip-encoded .binz body passed")
	}
}

func TestVerifierLiveBody(t *testing.T) {
	plan := loadgen.Request{Route: loadgen.RouteLive, Path: "/v1/live/fr", Conditional: true}
	c := serve(t, func(n int, w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("ETag", `"live-FR-19800-7"`)
		if n == 0 {
			w.Write([]byte(`{"cc":"FR","revision":7,"rows":[]}`))
		} else {
			w.Write([]byte(`{"cc":"DE","revision":7,"rows":[]}`))
		}
	})
	if err := c.fetch(context.Background(), plan, true); err != nil {
		t.Fatal(err)
	}
	// The second poll revalidates against "live-FR-19800-7", gets a 200
	// carrying that same tag, and for the wrong country too.
	if err := c.fetch(context.Background(), plan, true); err == nil {
		t.Fatal("a live 200 for a matching validator and the wrong country passed")
	}
}

func TestReportKey(t *testing.T) {
	for path, want := range map[string]dayKey{
		"/v1/apnic/reports/2024-03-01.csv": {"apnic", dates.New(2024, 3, 1)},
		"/v1/cdn/reports/2024-12-31":       {"cdn", dates.New(2024, 12, 31)},
		"/v1/ixp/reports/2024-01-02.binz":  {"ixp", dates.New(2024, 1, 2)},
		"/v1/reports/2024-05-06.csv":       {"apnic", dates.New(2024, 5, 6)},
		"/v1/mlab/reports/2024-05-06.bin":  {"mlab", dates.New(2024, 5, 6)},
	} {
		got, ok := reportKey(path)
		if !ok || got != want {
			t.Errorf("reportKey(%q) = %v %v, want %v", path, got, ok, want)
		}
	}
	for _, path := range []string{"/v1/apnic/dates", "/v1/series/AS1?cc=FR", "/v1/live/FR", "/v1/apnic/reports/bad.csv"} {
		if _, ok := reportKey(path); ok {
			t.Errorf("reportKey(%q) parsed a report key", path)
		}
	}
}
