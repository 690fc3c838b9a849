package main

import (
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/atlas"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/tix"
	"repro/internal/world"
)

// runTraced is the traced run. It does each workload's work once in
// this process, with a span around every call into a layer's public
// functions: the campaign pipeline (the calls shears makes), the window
// phase of serve_window and the ingest phase of serve_ingest, both over
// the dataset the pipeline wrote — so every per-layer metric is taken
// on the workload that exercises that layer, whichever workload the
// run is labelled with. The pipeline and the window phase also run
// untraced (the pipeline as the shears binary), and the differences are
// the tracing overhead. The spans are kept in memory and written at the
// end as a Chrome trace-event file under .bench_build/traces.
func runTraced(o options, prov *provenance) (*report, error) {
	ctx := context.Background()
	rep := newReport()
	dir, err := o.work("traced")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	workers := runtime.GOMAXPROCS(0)
	rt := startRuntimeSampler()
	root := obs.NewTrace("perfbench")
	root.SetAttr("workload", o.workload)
	root.SetAttr("seed", o.seed)

	// The untraced reference for the pipeline: shears itself.
	ref, err := runShears(ctx, o, filepath.Join(dir, "reference"))
	rep.op(err == nil)
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(filepath.Join(dir, "reference")); err != nil {
		return nil, err
	}

	s := root.Child("world.build")
	w, err := world.Build(world.Config{Seed: o.seed, Probes: o.size.Probes})
	s.End()
	if err != nil {
		return nil, err
	}
	cfg := campaignConfig(o.size.Days)

	// Synthesis alone, into a sink that discards, at shears' worker count.
	s = root.Child("atlas.synth")
	synthN, err := w.Platform.RunCampaignOpts(ctx, cfg, atlas.CampaignOptions{
		Workers:     workers,
		Fingerprint: cfg.Fingerprint(o.seed, w.Probes.Len()),
	}, func(results.Sample) error { return nil })
	s.End()
	if err != nil {
		return nil, err
	}

	// The campaign pipeline, as shears runs it with default flags.
	ds, figdir := filepath.Join(dir, "dataset"), filepath.Join(dir, "figures")
	camp := root.Child("phase:campaign")
	cr, err := pipeline{dir: ds, w: w, seed: o.seed, cfg: cfg, snapshot: true, span: camp}.run(ctx)
	if err != nil {
		return nil, err
	}
	nodes, err := buildTix(cr.store, w, camp)
	if err != nil {
		return nil, err
	}
	s = camp.Child("scan.figures")
	frep, fst, err := core.ScanStoreSnap(ctx, cr.store, w.Index, cfg.Start, binWidth, workers, nil, core.SnapshotOptions{
		Path: cr.store.SnapshotPath(), RefreshFactor: core.DefaultRefreshFactor,
	})
	s.End()
	if err != nil {
		return nil, err
	}
	s = camp.Child("figures.render")
	err = writeArtifacts(figdir, frep, cfg)
	s.End()
	if err != nil {
		return nil, err
	}
	camp.End()
	samplesBytes := fileSize(cr.store.SamplesPath())
	tixBytes, snapBytes := fileSize(cr.store.TixPath()), fileSize(cr.store.SnapshotPath())

	s = root.Child("scan.cold")
	cold, cst, err := core.ScanStore(ctx, cr.store, w.Index, cfg.Start, binWidth, workers, nil)
	s.End()
	if err != nil {
		return nil, err
	}
	if err := checkArtifacts(rep, figdir, cold, cfg); err != nil {
		return nil, err
	}

	// Serving over the pipeline's dataset, as atlasd over a shears
	// directory: samples.snap and samples.tix are already there.
	s = root.Child("serve.open")
	store, err := results.Open(ds)
	if err != nil {
		return nil, err
	}
	eng, sm, err := openEngine(store, w, true)
	if err == nil {
		err = eng.Refresh(ctx)
	}
	s.End()
	if err != nil {
		return nil, err
	}
	srv := &served{dir: ds, w: w, cfg: cfg, store: store, eng: eng, metrics: sm, samples: cr.samples}
	defer srv.close()
	h := eng.Handler()

	// Window phase: n distinct windows untraced, then n more traced, each
	// also queried straight through a tix.View so serve's own time is the
	// handler's minus the index query's.
	blocks, err := storeBlocks(store)
	if err != nil {
		return nil, err
	}
	samplesFile, err := os.Open(store.SamplesPath())
	if err != nil {
		return nil, err
	}
	defer samplesFile.Close()
	vix, err := tix.Open(store.TixPath(), tixBinding(store, w), blocks, nil)
	if err != nil {
		return nil, err
	}
	view := vix.View()
	defer vix.Close()
	n := int(o.size.BaseRate * 0.25 * o.seconds)
	windows := newWindowSource(o.seed, cfg.Start, cfg.End).upTo(2 * n)
	ut := openLoop(n, o.size.BaseRate, maxInFlight(), func(i int) bool {
		code, _ := get(h, windows[i].target())
		return code == http.StatusOK
	})
	handlerMs, queryMs, selfMs := make([]float64, n), make([]float64, n), make([]float64, n)
	qNodes, qEdges := make([]float64, n), make([]float64, n)
	wp := root.Child("phase:window")
	tt := openLoop(n, o.size.BaseRate, maxInFlight(), func(i int) bool {
		win := windows[n+i]
		hs := wp.Child("serve.handler")
		code, _ := get(h, win.target())
		hs.End()
		qs := wp.Child("tix.query")
		res, err := view.Query(ctx, samplesFile, blocks, win.since, win.until, w.Index)
		qs.End()
		handlerMs[i], queryMs[i] = ms(hs.Duration()), ms(qs.Duration())
		selfMs[i] = handlerMs[i] - queryMs[i]
		if err == nil {
			qNodes[i], qEdges[i] = float64(res.Stats.Nodes), float64(res.Stats.EdgeBlocks)
		}
		return code == http.StatusOK && err == nil
	})
	wp.End()
	for _, t := range append(ut, tt...) {
		rep.op(t.ok)
	}
	untraced, traced := summarize(ut), summarize(tt)

	// Ingest phase: serve_ingest's replay and dashboard reads, with a
	// copy of samples.tix extended beside the engine's own so the
	// extend is timed on its own.
	s = root.Child("atlas.synth_tail")
	srv.tail, err = synthTail(ctx, w, o.seed, campaignConfig(o.size.Days+o.size.TailDays), cfg.Rounds())
	s.End()
	if err != nil {
		return nil, err
	}
	copyPath := filepath.Join(dir, "tixcopy.tix")
	if err := copyFile(store.TixPath(), copyPath); err != nil {
		return nil, err
	}
	cix, err := tix.Open(copyPath, tixBinding(store, w), blocks, nil)
	if err != nil {
		return nil, err
	}
	defer cix.Close()
	ip := root.Child("phase:ingest")
	ingestDur := time.Duration(0.5 * o.seconds * float64(time.Second))
	res, err := ingest(ctx, srv, o.seed, ingestDur, o.size.IngestRate, ip, func() error {
		blocks, err := storeBlocks(store)
		if err != nil {
			return err
		}
		es := ip.Child("tix.extend")
		defer es.End()
		return cix.Extend(samplesFile, blocks, w.Index)
	})
	ip.End()
	if err != nil {
		return nil, err
	}
	reads := summarize(res.reads)
	for _, t := range res.reads {
		rep.op(t.ok)
	}
	if err := checkServedFigures(rep, srv); err != nil {
		return nil, err
	}
	// Hit latency: one figure, already cached, read repeatedly.
	hitMs := make([]float64, 200)
	for i := range hitMs {
		t0 := time.Now()
		code, _ := get(h, "/api/v1/figures/5")
		hitMs[i] = ms(time.Since(t0))
		rep.op(code == http.StatusOK)
	}
	root.End()
	gcFrac, heapPeak := rt.finish()

	if err := writeTrace(o, root); err != nil {
		return nil, err
	}
	d := root.Dump()
	campD, ingestD := find(d, "phase:campaign"), find(d, "phase:ingest")
	synthD := find(d, "atlas.synth")

	rep.set("world.build_s", total(spans(d, "world.build")), "s")
	rep.set("atlas.synth_s", synthD.DurationMs/1000, "s")
	rep.set("atlas.synth_samples_per_s", float64(synthN)/(synthD.DurationMs/1000), "1/s")
	rep.set("engine.merge_stalls", float64(cr.engine.MergeStalls.Value()), "count")
	rep.set("engine.queue_depth_peak", cr.engine.QueueDepthPeak.Value(), "count")
	rep.set("engine.checkpoints", float64(cr.engine.CheckpointWrites.Value()), "count")
	rep.set("results.write_s", cr.writeTime.Seconds(), "s")
	rep.set("results.commit_s", total(spans(campD, "results.commit")), "s")
	rep.set("results.commits", float64(len(spans(campD, "results.commit"))), "count")
	rep.set("results.close_s", total(spans(campD, "results.close")), "s")
	rep.set("results.bytes", float64(samplesBytes), "B")
	rep.set("results.ingest_write_s", total(spans(ingestD, "results.write")), "s")
	rep.set("results.ingest_commit_s", total(spans(ingestD, "results.commit")), "s")
	rep.set("snap.update_s", total(spans(campD, "snap.update")), "s")
	rep.set("snap.updates", float64(len(spans(campD, "snap.update"))), "count")
	rep.set("snap.bytes", float64(snapBytes), "B")
	rep.set("snap.bytes_rewritten", float64(cr.snapRewritten), "B")
	rep.set("tix.build_s", total(spans(campD, "tix.build")), "s")
	rep.set("tix.bytes", float64(tixBytes), "B")
	rep.set("tix.nodes", float64(nodes), "count")
	rep.set("tix.query_p50_ms", quantile(queryMs, 0.5), "ms")
	rep.set("tix.query_p99_ms", quantile(queryMs, 0.99), "ms")
	rep.set("tix.nodes_per_query", mean(qNodes), "count")
	rep.set("tix.edge_blocks_per_query", mean(qEdges), "count")
	rep.set("tix.extend_s", total(spans(ingestD, "tix.extend")), "s")
	rep.set("scan.figures_s", total(spans(campD, "scan.figures")), "s")
	rep.set("scan.blocks_read", float64(fst.BlocksRead), "count")
	rep.set("scan.blocks_total", float64(fst.BlocksTotal), "count")
	rep.set("scan.bytes_decoded", float64(fst.BytesDecoded), "B")
	rep.set("scan.cold_samples_per_s", float64(cst.Samples)/(find(d, "scan.cold").DurationMs/1000), "1/s")
	rep.set("figures.render_s", total(spans(campD, "figures.render")), "s")
	rep.set("serve.handler_miss_p50_ms", quantile(handlerMs, 0.5), "ms")
	rep.set("serve.handler_hit_p50_ms", quantile(hitMs, 0.5), "ms")
	rep.set("serve.self_p50_ms", quantile(selfMs, 0.5), "ms")
	rep.set("serve.cache_hit_ratio", ratio(res.cacheHits, res.cacheHits+res.cacheMiss), "ratio")
	rep.set("serve.cache_lookups", float64(res.cacheHits+res.cacheMiss), "count")
	rep.set("serve.cache_fills", float64(res.cacheMiss), "count")
	refreshMs := spanMs(spans(ingestD, "serve.refresh"))
	rep.set("serve.refresh_p50_ms", quantile(refreshMs, 0.5), "ms")
	rep.set("serve.refreshes", float64(len(refreshMs)), "count")
	rep.set("serve.publish_lag_ms", quantile(res.lags, 0.5), "ms")
	rep.set("runtime.gc_cpu_fraction", gcFrac, "ratio")
	rep.set("runtime.heap_peak_mb", heapPeak, "MB")
	self := selfTimes(d)
	// Sample writes run inside engine.run without spans of their own
	// (one per sample would cost more than the write); move their summed
	// time from the engine's self time to results'.
	self["engine"] -= cr.writeTime.Seconds()
	self["results"] += cr.writeTime.Seconds()
	for _, layer := range traceLayers {
		rep.set("self."+layer+"_s", self[layer], "s")
	}
	rep.set("trace.overhead_pipeline_s", campD.DurationMs/1000-ref.wall.Seconds(), "s")
	rep.set("trace.overhead_latency_p50_ms", traced.p50-untraced.p50, "ms")
	lateness := append(append(untraced.lateness, traced.lateness...), reads.lateness...)
	prov.LatenessP99Ms = quantile(lateness, 0.99)
	rep.set("gen.lateness_p99_ms", prov.LatenessP99Ms, "ms")
	rep.note("traced: pipeline %.2f s traced vs shears %.2f s untraced; window p50 %.2f ms traced vs %.2f ms untraced (%d requests each); %d ingest reads, p50 %.2f ms",
		campD.DurationMs/1000, ref.wall.Seconds(), traced.p50, untraced.p50, n, reads.n, reads.p50)
	return rep, nil
}

// traceLayers are the modules the traced run has spans for.
var traceLayers = []string{"world", "atlas", "engine", "results", "snap", "tix", "scan", "figures", "serve"}

// writeTrace writes the span tree as Chrome trace-event JSON, which
// cmd/trace and Perfetto read.
func writeTrace(o options, root *obs.Span) error {
	dir := filepath.Join(o.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, o.workload+"-"+strconv.FormatUint(o.seed, 10)+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := root.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// find returns the first span named name in d's tree (depth first).
func find(d obs.SpanDump, name string) obs.SpanDump {
	if d.Name == name {
		return d
	}
	for _, c := range d.Children {
		if f := find(c, name); f.Name == name {
			return f
		}
	}
	return obs.SpanDump{}
}

// spans returns every span named name in d's tree.
func spans(d obs.SpanDump, name string) []obs.SpanDump {
	var out []obs.SpanDump
	if d.Name == name {
		out = append(out, d)
	}
	for _, c := range d.Children {
		out = append(out, spans(c, name)...)
	}
	return out
}

// total sums the spans' durations in seconds.
func total(ds []obs.SpanDump) float64 {
	var s float64
	for _, d := range ds {
		s += d.DurationMs / 1000
	}
	return s
}

// spanMs lists the spans' durations in ms.
func spanMs(ds []obs.SpanDump) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.DurationMs
	}
	return out
}

// selfTimes sums, per layer (the span name up to its first dot), each
// span's duration minus the part of it its children cover. Spans whose
// name has no dot (the root) or a "phase:" prefix group work and belong
// to no layer.
func selfTimes(d obs.SpanDump) map[string]float64 {
	out := make(map[string]float64)
	var walk func(d obs.SpanDump)
	walk = func(d obs.SpanDump) {
		if layer, _, ok := strings.Cut(d.Name, "."); ok && !strings.HasPrefix(d.Name, "phase:") {
			out[layer] += (time.Duration(d.DurationMs*float64(time.Millisecond)) - covered(d)).Seconds()
		}
		for _, c := range d.Children {
			walk(c)
		}
	}
	walk(d)
	return out
}

// covered is how much of d's interval the union of its children spans.
func covered(d obs.SpanDump) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	end := d.Start.Add(time.Duration(d.DurationMs * float64(time.Millisecond)))
	for _, c := range d.Children {
		a := c.Start
		b := c.Start.Add(time.Duration(c.DurationMs * float64(time.Millisecond)))
		if a.Before(d.Start) {
			a = d.Start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var sum time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			sum += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		sum += cur.b.Sub(cur.a)
	}
	return sum
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// runtimeSampler tracks the Go runtime over the traced run: the peak of
// live heap objects, sampled every 10 ms, and the share of CPU time
// spent in the garbage collector.
type runtimeSampler struct {
	stop    chan struct{}
	wg      sync.WaitGroup
	peak    uint64
	gc0, t0 float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() (heap uint64, gc, totalCPU float64) {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Float64(), s[2].Value.Float64()
}

func startRuntimeSampler() *runtimeSampler {
	r := &runtimeSampler{stop: make(chan struct{})}
	_, r.gc0, r.t0 = readRuntime()
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				if h, _, _ := readRuntime(); h > r.peak {
					r.peak = h
				}
			}
		}
	}()
	return r
}

// finish stops the sampler and returns the GC CPU fraction and the heap
// peak in MB.
func (r *runtimeSampler) finish() (float64, float64) {
	close(r.stop)
	r.wg.Wait()
	runtime.GC() // brings the CPU-class counters up to date
	_, gc, tot := readRuntime()
	frac := 0.0
	if tot > r.t0 {
		frac = (gc - r.gc0) / (tot - r.t0)
	}
	return frac, float64(r.peak) / (1 << 20)
}
