package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one request
// share Trace; Parent names the span that caused this one (0 for a
// root).
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name,omitempty"`
	Start  int64  `json:"start_ns"` // from the tracer's origin
	End    int64  `json:"end_ns"`
}

// Dur is the span's length.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer is the
// untraced mode: every method is a no-op, so call sites need no branch.
type Tracer struct {
	origin time.Time
	ids    atomic.Uint64

	mu    sync.Mutex
	spans []Span
}

// NewTracer returns a tracer whose span times count from now.
func NewTracer() *Tracer { return &Tracer{origin: time.Now()} }

// NewID reserves a span ID, for a span whose ID must be known before it
// ends (a client span whose ID travels in a request header).
func (t *Tracer) NewID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// Now returns the tracer clock.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.origin))
}

// Record stores a finished span, assigning an ID when it has none, and
// returns the ID.
func (t *Tracer) Record(s Span) uint64 {
	if t == nil {
		return 0
	}
	if s.ID == 0 {
		s.ID = t.NewID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// Time runs fn, records it as a span when tracing, and returns how long
// it took.
func (t *Tracer) Time(layer, name string, parent uint64, fn func()) time.Duration {
	if t == nil {
		t0 := time.Now()
		fn()
		return time.Since(t0)
	}
	start := t.Now()
	fn()
	end := t.Now()
	t.Record(Span{Parent: parent, Layer: layer, Name: name, Start: start, End: end})
	return time.Duration(end - start)
}

// Reset drops the spans recorded so far: set-up traffic is not part of
// the measured phase.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SelfTimes returns each layer's self time in seconds: every span's
// length minus the part of it that its child spans cover.
func SelfTimes(spans []Span) map[string]float64 {
	children := map[uint64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	for _, s := range spans {
		covered := coveredWithin(s, children[s.ID])
		self[s.Layer] += (s.Dur() - covered).Seconds()
	}
	return self
}

// coveredWithin returns how much of parent's interval the union of kids
// covers, clipped to the parent.
func coveredWithin(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, v := range iv {
		switch {
		case i == 0:
			curA, curB = v[0], v[1]
		case v[0] > curB:
			total += curB - curA
			curA, curB = v[0], v[1]
		case v[1] > curB:
			curB = v[1]
		}
	}
	if len(iv) > 0 {
		total += curB - curA
	}
	return time.Duration(total)
}

// WriteSpans writes the spans as JSON lines, creating the directory.
func WriteSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
