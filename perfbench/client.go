package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/loadgen"
	"repro/internal/source/binfmt"
	"repro/internal/source/framez"
)

// requestIDHeader carries the client span's ID to the traced handler, so
// the two spans of one request share a trace.
const requestIDHeader = "X-Request-ID"

// client is the benchmark's HTTP client: at most `workers` connections,
// explicit Accept-Encoding, and a verifier every response goes through.
type client struct {
	base string
	hc   *http.Client
	tr   *Tracer
	v    *verifier

	mu     sync.Mutex
	decode map[string]time.Duration // client-side decode busy time by codec
}

func newClient(base string, workers int, tr *Tracer) *client {
	return &client{
		base: base,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: workers,
			MaxConnsPerHost:     workers,
			// The request sets Accept-Encoding itself; the transport must
			// not negotiate gzip behind the measurement's back.
			DisableCompression: true,
		}},
		tr:     tr,
		v:      newVerifier(),
		decode: map[string]time.Duration{},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// fetch sends one planned request and verifies the response. The error
// is non-nil when the request failed or broke the serving contract.
// conditional=false suppresses If-None-Match even for a conditional
// plan (the warm-up fetches each key plainly).
func (c *client) fetch(ctx context.Context, plan loadgen.Request, conditional bool) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+plan.Path, nil)
	if err != nil {
		return err
	}
	if plan.Gzip {
		req.Header.Set("Accept-Encoding", "gzip")
	} else {
		req.Header.Set("Accept-Encoding", "identity")
	}
	sent := ""
	if conditional && plan.Conditional {
		sent = c.v.etag(plan)
		if sent != "" {
			req.Header.Set("If-None-Match", sent)
		}
	}
	id := c.tr.NewID()
	if c.tr != nil {
		req.Header.Set(requestIDHeader, strconv.FormatUint(id, 10))
	}
	start := c.tr.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("%s: %w", plan.Path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.tr.Record(Span{ID: id, Trace: id, Layer: "client", Name: plan.Route, Start: start, End: c.tr.Now()})
	if err != nil {
		return fmt.Errorf("%s: reading body: %w", plan.Path, err)
	}
	spent, err := c.v.check(plan, sent, resp.StatusCode, resp.Header, body)
	if len(spent) > 0 {
		c.mu.Lock()
		for codec, d := range spent {
			c.decode[codec] += d
		}
		c.mu.Unlock()
	}
	return err
}

// decodeTime returns the client's decode busy time for a codec.
func (c *client) decodeTime(codec string) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.decode[codec]
}

// verifier checks responses against the serving contract:
//   - no status >= 400, and nothing but 200 and 304;
//   - a 304 only for an If-None-Match naming the current ETag, and no
//     200 that carries the very ETag the request named;
//   - a 200 body and ETag never change per (path, encoding), except on
//     the live route, whose body must name its country and revision;
//   - .bin identity bodies decode with binfmt, .binz bodies with framez
//     and never arrive gzip-encoded.
type verifier struct {
	seed maphash.Seed

	mu     sync.Mutex
	bodies map[string]uint64 // path|encoding -> hash of the first 200 body
	etags  map[string]string // path|encoding -> ETag of the first 200
}

func newVerifier() *verifier {
	return &verifier{seed: maphash.MakeSeed(), bodies: map[string]uint64{}, etags: map[string]string{}}
}

func bodyKey(plan loadgen.Request) string {
	if plan.Gzip {
		return plan.Path + "|gzip"
	}
	return plan.Path + "|identity"
}

// etag returns the validator to revalidate plan with: the last ETag a
// 200 carried for its key.
func (v *verifier) etag(plan loadgen.Request) string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.etags[bodyKey(plan)]
}

// check verifies one response and returns the decode time it spent per
// codec.
func (v *verifier) check(plan loadgen.Request, sentETag string, status int, h http.Header, body []byte) (map[string]time.Duration, error) {
	etag := h.Get("ETag")
	switch {
	case status == http.StatusNotModified:
		if sentETag == "" {
			return nil, fmt.Errorf("%s: 304 to a request without If-None-Match", plan.Path)
		}
		if etag != sentETag {
			return nil, fmt.Errorf("%s: 304 for If-None-Match %s but current ETag is %s", plan.Path, sentETag, etag)
		}
		return nil, nil
	case status != http.StatusOK:
		return nil, fmt.Errorf("%s: status %d", plan.Path, status)
	}
	if sentETag != "" && etag == sentETag {
		return nil, fmt.Errorf("%s: 200 although If-None-Match %s matches", plan.Path, sentETag)
	}
	if plan.Route == loadgen.RouteLive {
		if err := checkLive(plan.Path, etag, body); err != nil {
			return nil, err
		}
		// The live estimate mutates: revalidate against the newest tag.
		v.mu.Lock()
		v.etags[bodyKey(plan)] = etag
		v.mu.Unlock()
		return nil, nil
	}

	key := bodyKey(plan)
	sum := maphash.Bytes(v.seed, body)
	v.mu.Lock()
	prev, seen := v.bodies[key]
	prevTag := v.etags[key]
	if !seen {
		v.bodies[key], v.etags[key] = sum, etag
	}
	v.mu.Unlock()
	if seen && prev != sum {
		return nil, fmt.Errorf("%s (%s): body changed between responses", plan.Path, key)
	}
	if seen && prevTag != etag {
		return nil, fmt.Errorf("%s (%s): ETag changed from %s to %s", plan.Path, key, prevTag, etag)
	}

	if seen {
		// The same bytes decoded when first seen: decoding them again
		// would only spend the CPU the server shares with this client.
		return nil, nil
	}
	gzipped := h.Get("Content-Encoding") == "gzip"
	spent := map[string]time.Duration{}
	switch plan.Route {
	case loadgen.RouteReportBin:
		if gzipped {
			return nil, nil // covered by the body hash; decoding would need a gunzip first
		}
		t0 := time.Now()
		_, err := binfmt.Decode(body)
		spent["binfmt"] = time.Since(t0)
		if err != nil {
			return spent, fmt.Errorf("%s: %w", plan.Path, err)
		}
	case loadgen.RouteReportBinz:
		if gzipped {
			return nil, fmt.Errorf("%s: .binz body arrived gzip-encoded", plan.Path)
		}
		t0 := time.Now()
		_, err := framez.Decode(body)
		spent["framez"] = time.Since(t0)
		if err != nil {
			return spent, fmt.Errorf("%s: %w", plan.Path, err)
		}
	}
	return spent, nil
}

// checkLive verifies a live estimate: JSON for the requested country
// whose revision is the one its ETag names.
func checkLive(path, etag string, body []byte) error {
	var resp struct {
		Country  string `json:"cc"`
		Revision uint64 `json:"revision"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%s: live body: %w", path, err)
	}
	cc := strings.ToUpper(path[strings.LastIndexByte(path, '/')+1:])
	if resp.Country != cc {
		return fmt.Errorf("%s: live body is for %q", path, resp.Country)
	}
	if !strings.HasSuffix(etag, "-"+strconv.FormatUint(resp.Revision, 10)+`"`) {
		return fmt.Errorf("%s: ETag %s does not name revision %d", path, etag, resp.Revision)
	}
	return nil
}
