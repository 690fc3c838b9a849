package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/apps"
	"repro/internal/atlas"
	"repro/internal/colf"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/figures"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/snap"
	"repro/internal/tix"
	"repro/internal/world"
)

// binWidth is the Figure 7 bin width shears and atlasd analyze with.
const binWidth = 7 * 24 * time.Hour

// campaignConfig is the campaign shears runs at -days days.
func campaignConfig(days int) atlas.CampaignConfig {
	cfg := atlas.TestCampaign()
	cfg.End = cfg.Start.Add(time.Duration(days) * 24 * time.Hour)
	return cfg
}

// pipeline runs the campaign into a fresh binary store through the same
// public calls cmd/shears makes, so the serve workloads can build their
// dataset in this process and the traced run can time each layer. Every
// call into a layer is wrapped in a child span of span; a nil span runs
// untraced.
type pipeline struct {
	dir  string
	w    *world.World
	seed uint64
	cfg  atlas.CampaignConfig
	// snapshot refreshes samples.snap at every checkpoint, as shears'
	// default -snapshot auto does.
	snapshot bool
	span     *obs.Span
}

// campaignRun is what a pipeline run leaves behind.
type campaignRun struct {
	store   *results.Store
	samples uint64
	engine  *engine.Metrics
	// writeTime is the summed time inside sink.Write (traced runs only):
	// a span per sample would cost more than the write.
	writeTime time.Duration
	// snapRewritten sums the snapshot file's size over its writes.
	snapRewritten int64
}

func (p pipeline) run(ctx context.Context) (*campaignRun, error) {
	workers := runtime.GOMAXPROCS(0)
	meta := p.cfg.Meta(p.seed, p.w.Probes.Len(), p.w.Catalog.Len())
	store, sink, err := results.Create(p.dir, meta, results.FormatBinary)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	out := &campaignRun{store: store, engine: engine.NewMetrics(reg)}
	snapMetrics := snap.NewMetrics(reg)
	snapOpts := core.SnapshotOptions{
		Path:          store.SnapshotPath(),
		Metrics:       snapMetrics,
		RefreshFactor: core.DefaultRefreshFactor,
	}
	ckPath := filepath.Join(p.dir, "checkpoint.json")
	engSpan := p.span.Child("engine.run")
	write := sink.Write
	if p.span != nil {
		write = func(s results.Sample) error {
			t0 := time.Now()
			err := sink.Write(s)
			out.writeTime += time.Since(t0)
			return err
		}
	}
	opts := atlas.CampaignOptions{
		Workers:         workers,
		Fingerprint:     p.cfg.Fingerprint(p.seed, p.w.Probes.Len()),
		CheckpointPath:  ckPath,
		CheckpointEvery: engine.DefaultCheckpointEvery,
		EngineMetrics:   out.engine,
		Commit: func() (int64, error) {
			s := engSpan.Child("results.commit")
			defer s.End()
			return sink.Commit()
		},
	}
	if p.snapshot {
		opts.OnCheckpoint = func(round int, offset int64) {
			s := engSpan.Child("snap.update")
			before := snapMetrics.Writes.Value()
			_, err := core.UpdateSnapshot(ctx, store, p.w.Index, p.cfg.Start, binWidth, workers, nil, snapOpts)
			s.End()
			if err != nil {
				// shears logs and carries on; a failed snapshot only
				// costs the figure scan its resume.
				fmt.Fprintln(os.Stderr, "perfbench: snapshot update failed:", err)
			}
			if snapMetrics.Writes.Value() > before {
				out.snapRewritten += fileSize(store.SnapshotPath())
			}
		}
	}
	n, err := p.w.Platform.RunCampaignOpts(ctx, p.cfg, opts, write)
	engSpan.End()
	out.samples = n
	if err != nil {
		sink.Close()
		return nil, err
	}
	closeSpan := p.span.Child("results.close")
	err = sink.Close()
	closeSpan.End()
	if err != nil {
		return nil, err
	}
	if err := os.Remove(ckPath); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	return out, nil
}

// storeBlocks lists the sealed blocks of a closed or growing store.
func storeBlocks(store *results.Store) ([]colf.BlockInfo, error) {
	f, err := os.Open(store.SamplesPath())
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	blocks, _, err := colf.DeltaBlocksAvailable(f, fi.Size(), colf.HeaderSize)
	return blocks, err
}

// tixBinding is the binding shears and atlasd open samples.tix with.
func tixBinding(store *results.Store, w *world.World) tix.Binding {
	return tix.Binding{
		PassSet: tix.PassSetCDF,
		Index:   w.Index.Fingerprint(),
		Meta:    core.MetaFingerprint(store.Meta()),
	}
}

// buildTix builds samples.tix the way shears does after its campaign,
// returning the node count.
func buildTix(store *results.Store, w *world.World, span *obs.Span) (int, error) {
	s := span.Child("tix.build")
	defer s.End()
	blocks, err := storeBlocks(store)
	if err != nil {
		return 0, err
	}
	sf, err := os.Open(store.SamplesPath())
	if err != nil {
		return 0, err
	}
	defer sf.Close()
	ix, err := tix.Open(store.TixPath(), tixBinding(store, w), blocks, nil)
	if err != nil {
		return 0, err
	}
	if err := ix.Extend(sf, blocks, w.Index); err != nil {
		ix.Close()
		return 0, err
	}
	return ix.Nodes(), ix.Close()
}

// synthTail synthesizes rounds [from, cfg.Rounds()) of cfg in memory,
// grouped into batches of engine.DefaultCheckpointEvery rounds — the
// unit one checkpoint commits. Synthesis is deterministic per round, so
// the tail continues a store holding cfg's first from rounds.
func synthTail(ctx context.Context, w *world.World, seed uint64, cfg atlas.CampaignConfig, from int) ([][]results.Sample, error) {
	var (
		batches [][]results.Sample
		cur     []results.Sample
		rounds  int
	)
	opts := atlas.CampaignOptions{
		Workers:     runtime.GOMAXPROCS(0),
		Fingerprint: cfg.Fingerprint(seed, w.Probes.Len()),
		StartRound:  from,
		OnRound: func(round int, _ uint64) {
			rounds++
			if rounds%engine.DefaultCheckpointEvery == 0 || round == cfg.Rounds()-1 {
				batches = append(batches, cur)
				cur = nil
			}
		},
	}
	_, err := w.Platform.RunCampaignOpts(ctx, cfg, opts, func(s results.Sample) error {
		cur = append(cur, s)
		return nil
	})
	return batches, err
}

// writeArtifacts writes the -figdir files shears writes, from rep.
func writeArtifacts(dir string, rep *core.SuiteReport, cfg atlas.CampaignConfig) error {
	files, err := renderArtifacts(rep, cfg)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// renderArtifacts renders shears' -figdir artifacts in memory, keyed by
// file name: the same renderer calls, in the same order.
func renderArtifacts(rep *core.SuiteReport, cfg atlas.CampaignConfig) (map[string][]byte, error) {
	out := make(map[string][]byte)
	render := func(name string, fn func(io.Writer) error) error {
		var b bytes.Buffer
		if err := fn(&b); err != nil {
			return fmt.Errorf("render %s: %w", name, err)
		}
		out[name] = b.Bytes()
		return nil
	}
	series, _, err := figures.Figure1(context.Background(), 1)
	if err != nil {
		return nil, err
	}
	rep8, _, err := figures.Figure8(rep.LastMile, apps.Paper())
	if err != nil {
		return nil, err
	}
	steps := []struct {
		name string
		fn   func(io.Writer) error
	}{
		{"figure1.csv", func(w io.Writer) error { return figures.Figure1CSV(w, series) }},
		{"figure1.svg", func(w io.Writer) error { return figures.Figure1SVG(w, series) }},
		{"figure4.csv", func(w io.Writer) error { return figures.Figure4CSV(w, rep.Proximity) }},
		{"figure5.csv", func(w io.Writer) error { return figures.CDFCSV(w, rep.MinRTT) }},
		{"figure5.svg", func(w io.Writer) error {
			return figures.CDFSVG(w, rep.MinRTT, "Figure 5: min RTT CDF by continent")
		}},
		{"figure6.csv", func(w io.Writer) error { return figures.CDFCSV(w, rep.FullDist) }},
		{"figure6.svg", func(w io.Writer) error {
			return figures.CDFSVG(w, rep.FullDist, "Figure 6: all pings to closest DC")
		}},
		{"figure7.csv", func(w io.Writer) error { return figures.Figure7CSV(w, rep.LastMile) }},
		{"figure7.svg", func(w io.Writer) error { return figures.Figure7SVG(w, rep.LastMile, cfg.Start) }},
		{"figure8.csv", func(w io.Writer) error { return figures.Figure8CSV(w, rep8) }},
	}
	for _, s := range steps {
		if err := render(s.name, s.fn); err != nil {
			return nil, err
		}
	}
	return out, nil
}
