// Package bundle assembles the seven dataset simulators into one
// source.Registry. The source package cannot import the simulators (they
// import it for their Frame conversions), so this is the single place the
// full roster is wired together — the experiment lab and the HTTP server
// both build their registries here, which is what guarantees they agree
// on dataset names, caching, and metrics.
package bundle

import (
	"repro/internal/apnic"
	"repro/internal/broadband"
	"repro/internal/cdn"
	"repro/internal/dnscount"
	"repro/internal/itu"
	"repro/internal/ixp"
	"repro/internal/mlab"
	"repro/internal/obsv"
	"repro/internal/source"
	"repro/internal/world"
)

// Config tunes the bundle. Zero value is usable: a private metrics
// registry and source.DefaultCacheDays per dataset. Pre-built generator
// fields let a caller that already owns instances (the experiment lab)
// reuse them; nil fields are constructed from (w, seed).
type Config struct {
	Metrics   *obsv.Registry
	CacheDays int

	ITU       *itu.Estimator
	APNIC     *apnic.Generator
	CDN       *cdn.Generator
	MLab      *mlab.Generator
	DNS       *dnscount.Generator
	Broadband *broadband.Generator
	IXP       *ixp.Generator
}

// Bundle is the assembled roster: the uniform registry plus the typed
// adapters, so consumers needing native artifacts (reports, snapshots)
// skip the frame conversion while still sharing the same day caches.
type Bundle struct {
	Registry *source.Registry

	APNIC     *apnic.Source
	CDN       *cdn.Source
	ITU       *itu.Source
	MLab      *mlab.Source
	DNS       *dnscount.Source
	Broadband *broadband.Source
	IXP       *ixp.Source
}

// New builds the seven sources over one world and registers them all.
// Generation is deterministic in (w, seed): two bundles with the same
// inputs produce byte-identical frames.
func New(w *world.World, seed uint64, cfg Config) *Bundle {
	metrics := cfg.Metrics
	if metrics == nil {
		metrics = obsv.NewRegistry()
	}
	days := cfg.CacheDays
	if days < 1 {
		days = source.DefaultCacheDays
	}

	ituEst := cfg.ITU
	if ituEst == nil {
		ituEst = itu.New(w, seed)
	}
	apnicGen := cfg.APNIC
	if apnicGen == nil {
		apnicGen = apnic.New(w, ituEst, seed)
	}
	cdnGen := cfg.CDN
	if cdnGen == nil {
		cdnGen = cdn.New(w, seed)
	}
	mlabGen := cfg.MLab
	if mlabGen == nil {
		mlabGen = mlab.New(w, seed)
	}
	dnsGen := cfg.DNS
	if dnsGen == nil {
		dnsGen = dnscount.New(w, seed)
	}
	bbGen := cfg.Broadband
	if bbGen == nil {
		bbGen = broadband.New(w, seed)
	}
	ixpGen := cfg.IXP
	if ixpGen == nil {
		ixpGen = ixp.New(w, seed)
	}

	b := &Bundle{
		Registry:  source.NewRegistry(metrics, days),
		APNIC:     apnic.NewSource(apnicGen, metrics, days),
		CDN:       cdn.NewSource(cdnGen, metrics, days),
		ITU:       itu.NewSource(ituEst, metrics, days),
		MLab:      mlab.NewSource(mlabGen, metrics, days),
		DNS:       dnscount.NewSource(dnsGen, metrics, days),
		Broadband: broadband.NewSource(bbGen, metrics, days),
		IXP:       ixp.NewSource(ixpGen, metrics, days),
	}
	b.Registry.Register(b.APNIC)
	b.Registry.Register(b.CDN)
	b.Registry.Register(b.ITU)
	b.Registry.Register(b.MLab)
	b.Registry.Register(b.DNS)
	b.Registry.Register(b.Broadband)
	b.Registry.Register(b.IXP)
	return b
}
