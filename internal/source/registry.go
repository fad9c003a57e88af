package source

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/dates"
	"repro/internal/obsv"
)

// ErrUnknownSource is returned when a dataset name is not registered.
var ErrUnknownSource = errors.New("source: unknown dataset")

// DefaultCacheDays bounds each dataset's frame cache when no capacity is
// given: a year of frames per dataset.
const DefaultCacheDays = 365

// Registry resolves dataset names to sources and memoizes their frames
// with per-(dataset, day) singleflight caching — the single place both
// the experiment lab and the HTTP server go through, so memoization and
// metrics are uniform across all seven datasets.
type Registry struct {
	metrics  *obsv.Registry
	capacity int

	mu      sync.RWMutex
	names   []string // registration order
	entries map[string]*regEntry
}

type regEntry struct {
	src    Source
	frames *Days[*Frame]
}

// NewRegistry returns a registry whose per-dataset frame caches hold at
// most cacheDays days each (DefaultCacheDays when cacheDays < 1). A nil
// metrics registry gets a private one.
func NewRegistry(metrics *obsv.Registry, cacheDays int) *Registry {
	if metrics == nil {
		metrics = obsv.NewRegistry()
	}
	if cacheDays < 1 {
		cacheDays = DefaultCacheDays
	}
	return &Registry{
		metrics:  metrics,
		capacity: cacheDays,
		entries:  map[string]*regEntry{},
	}
}

// Metrics returns the obsv registry the frame caches report into.
func (r *Registry) Metrics() *obsv.Registry { return r.metrics }

// Register adds a source under its name. Registering a duplicate name is
// a programming error and panics.
func (r *Registry) Register(s Source) {
	r.mu.Lock()
	defer r.mu.Unlock()
	name := s.Name()
	if _, dup := r.entries[name]; dup {
		panic(fmt.Sprintf("source: duplicate registration of dataset %q", name))
	}
	r.entries[name] = &regEntry{
		src:    s,
		frames: NewDays[*Frame](r.metrics, "source_frame", name, r.capacity),
	}
	r.names = append(r.names, name)
}

// Names returns the registered dataset names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.names...)
}

// Lookup returns the source registered under name.
func (r *Registry) Lookup(name string) (Source, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	if !ok {
		return nil, false
	}
	return e.src, true
}

func (r *Registry) entry(name string) (*regEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// Frame returns the memoized frame for one dataset-day, generating it at
// most once while the day stays resident even under concurrent callers.
// The returned frame is shared: callers must treat it as read-only.
func (r *Registry) Frame(name string, d dates.Date) (*Frame, error) {
	e, ok := r.entry(name)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownSource, name)
	}
	return e.frames.Get(d, e.src.Generate), nil
}

// Window returns the registered source's window.
func (r *Registry) Window(name string) (Window, bool) {
	s, ok := r.Lookup(name)
	if !ok {
		return Window{}, false
	}
	return s.Window(), true
}

// FrameCacheStats returns the frame cache activity for one dataset.
func (r *Registry) FrameCacheStats(name string) (CacheStats, bool) {
	e, ok := r.entry(name)
	if !ok {
		return CacheStats{}, false
	}
	return e.frames.Stats(), true
}
