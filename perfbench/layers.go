package main

import (
	"io"
	"time"

	"repro/internal/experiments"
	"repro/internal/loadgen"
	"repro/internal/source"
	"repro/internal/source/binfmt"
	"repro/internal/source/bundle"
	"repro/internal/source/framez"
)

// layerSample caps how many missed dataset-days per dataset the layer
// pass re-times.
const layerSample = 3

// layerPass times each generation and codec layer on a sample of the
// dataset-days the workload missed on, against a fresh registry so every
// Frame call generates: Registry.Frame per dataset, then ContentHash,
// WriteCSV, WriteJSON, binfmt.Encode and framez.Encode on the frame.
// Codec times are means per frame over the sample.
func layerPass(res *Result, env *serveEnv, missed []dayKey, tr *Tracer) error {
	b := bundle.New(env.w, env.seed, bundle.Config{CacheDays: 1})
	perDataset := map[string]int{}
	gen := map[string][]float64{}
	codec := map[string]time.Duration{}
	frames := 0
	for _, k := range missed {
		if perDataset[k.dataset] >= layerSample {
			continue
		}
		perDataset[k.dataset]++
		root := tr.NewID()
		rootStart := tr.Now()
		var f *source.Frame
		var err error
		d := tr.Time("source.generate", k.dataset, root, func() { f, err = b.Registry.Frame(k.dataset, k.day) })
		if err != nil {
			return err
		}
		gen[k.dataset] = append(gen[k.dataset], d.Seconds())
		steps := []struct {
			layer string
			fn    func() error
		}{
			{"source.content_hash", func() error { f.ContentHash(); return nil }},
			{"source.csv_encode", func() error { return f.WriteCSV(io.Discard) }},
			{"source.json_encode", func() error { return f.WriteJSON(io.Discard) }},
			{"binfmt.encode", func() error { _, err := binfmt.Encode(f); return err }},
			{"framez.encode", func() error { _, err := framez.Encode(f); return err }},
		}
		for _, s := range steps {
			codec[s.layer] += tr.Time(s.layer, k.dataset, root, func() { err = s.fn() })
			if err != nil {
				return err
			}
		}
		tr.Record(Span{ID: root, Layer: "layerpass", Name: k.dataset + "/" + k.day.String(), Start: rootStart, End: tr.Now()})
		frames++
	}
	for _, ds := range loadgen.Datasets {
		res.Layer["source."+ds+".generate_s"] = median(gen[ds])
	}
	for _, layer := range codecLayers {
		res.Layer[layer+"_s"] = ratio(codec[layer].Seconds(), float64(frames))
	}
	res.Layer["layerpass.frames"] = float64(frames)
	return nil
}

var codecLayers = []string{"source.content_hash", "source.csv_encode", "source.json_encode", "binfmt.encode", "framez.encode"}

// spanLayers are the layers spans are recorded under; every traced run
// reports a self time for each, 0 where the workload never enters it.
var spanLayers = []string{
	"client", "apnicweb", "stream.snapshot", "stream.publish", "sweep", "experiments",
	"layerpass", "source.generate", "source.content_hash", "source.csv_encode",
	"source.json_encode", "binfmt.encode", "framez.encode",
}

// The per-layer metric groups. A workload that never calls a group's
// layer reports it as 0 through bypass: that is the measurement, the
// workload bypasses the layer.

func experimentLayers() []string {
	names := []string{"experiments.serial_s", "experiments.parallel_efficiency", "experiments.mallocs",
		"experiments.alloc_bytes", "apnic.memo_hit_ratio"}
	for _, r := range experiments.Runners() {
		names = append(names, "experiments."+r.Name+"_s")
	}
	return names
}

func sourceLayers() []string {
	names := []string{"layerpass.frames"}
	for _, ds := range loadgen.Datasets {
		names = append(names, "source."+ds+".generate_s")
	}
	for _, layer := range codecLayers {
		names = append(names, layer+"_s")
	}
	return names
}

func serveLayers() []string {
	names := []string{"apnicweb.transport_s", "apnicweb.bytes_out", "apnicweb.not_modified_ratio",
		"apnicweb.gzip_hit_ratio", "source.frame_hit_ratio", "source.bin_hit_ratio", "source.binz_hit_ratio",
		"source.generations", "syncx.evictions", "syncx.resident_days", "binfmt.decode_s", "framez.decode_s",
		"driver.lateness_p99_s", "driver.queue_wait_p50_s", "driver.capacity_rps"}
	for _, class := range handlerClasses {
		names = append(names, "apnicweb.handler_p50_s."+class, "apnicweb.handler_p99_s."+class)
	}
	return names
}

func streamLayers() []string {
	return []string{"stream.emit_wait_s", "stream.enrich_s", "stream.publish_s", "stream.filtered",
		"stream.batches", "stream.published", "stream.snapshot_s"}
}

// bypass sets every metric of the given groups that the workload did
// not measure to 0.
func bypass(res *Result, groups ...[]string) {
	for _, g := range groups {
		for _, name := range g {
			if _, ok := res.Layer[name]; !ok {
				res.Layer[name] = 0
			}
		}
	}
}
