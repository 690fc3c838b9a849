package tix_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/atlas"
	"repro/internal/colf"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/results"
	"repro/internal/stats"
	"repro/internal/tix"
	"repro/internal/world"
)

// The tix tests drive a real campaign store sealed into many small
// blocks, and hold the index to the tentpole bar: whatever window is
// asked, composing pre-merged segment nodes must produce the same
// sample multiset — hence bit-identical quantiles and curves — as a
// cold fold over the raw samples.

// fixture is one built world + sealed binary store shared by the tests
// (read-only after construction).
type fixture struct {
	world   *world.World
	samples []results.Sample
	meta    results.Meta
	store   *results.Store
	blocks  []colf.BlockInfo
	binding tix.Binding
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

const fixBlockRows = 512 // small sealed blocks => a deep segment tree

func getFixture(t testing.TB) *fixture {
	t.Helper()
	fixOnce.Do(func() { fix, fixErr = buildFixture() })
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fix
}

func buildFixture() (*fixture, error) {
	w, err := world.Build(world.Config{Seed: 3, Probes: 200})
	if err != nil {
		return nil, err
	}
	cfg := atlas.TestCampaign()
	cfg.End = cfg.Start.Add(6 * 24 * time.Hour) // 48 rounds ≈ 19K samples
	var mem results.Memory
	if _, err := w.Platform.RunCampaign(context.Background(), cfg, mem.Add); err != nil {
		return nil, err
	}
	var samples []results.Sample
	mem.ForEach(func(s results.Sample) error {
		samples = append(samples, s)
		return nil
	})

	dir, err := os.MkdirTemp("", "tixfix")
	if err != nil {
		return nil, err
	}
	meta := cfg.Meta(3, w.Probes.Len(), w.Catalog.Len())
	// Seal small blocks so the store holds a few dozen of them.
	store, blocks, err := writeStore(dir, meta, samples, fixBlockRows)
	if err != nil {
		return nil, err
	}
	return &fixture{
		world:   w,
		samples: samples,
		meta:    meta,
		store:   store,
		blocks:  blocks,
		binding: tix.Binding{
			PassSet: tix.PassSetCDF,
			Index:   w.Index.Fingerprint(),
			Meta:    core.MetaFingerprint(meta),
		},
	}, nil
}

// writeStore writes samples into a new binary store at dir, sealing a
// block every blockRows rows, and returns it with its block list.
func writeStore(dir string, meta results.Meta, samples []results.Sample, blockRows int) (*results.Store, []colf.BlockInfo, error) {
	store, sink, err := results.Create(dir, meta, results.FormatBinary)
	if err != nil {
		return nil, nil, err
	}
	for i, s := range samples {
		if err := sink.Write(s); err != nil {
			return nil, nil, err
		}
		if (i+1)%blockRows == 0 {
			if err := sink.Flush(); err != nil {
				return nil, nil, err
			}
		}
	}
	if err := sink.Close(); err != nil {
		return nil, nil, err
	}
	r, closer, err := colf.Open(store.SamplesPath())
	if err != nil {
		return nil, nil, err
	}
	defer closer.Close()
	return store, append([]colf.BlockInfo(nil), r.Blocks()...), nil
}

// writeStore writes samples into a fresh store under the fixture's
// campaign meta (so its binding still applies).
func (f *fixture) writeStore(t testing.TB, samples []results.Sample, blockRows int) (*results.Store, []colf.BlockInfo) {
	t.Helper()
	store, blocks, err := writeStore(t.TempDir(), f.meta, samples, blockRows)
	if err != nil {
		t.Fatal(err)
	}
	return store, blocks
}

// openSamples returns a ReaderAt over the samples file.
func (f *fixture) openSamples(t testing.TB) *os.File {
	t.Helper()
	sf, err := os.Open(f.store.SamplesPath())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sf.Close() })
	return sf
}

// build opens a fresh index at path and extends it over blocks.
func (f *fixture) build(t testing.TB, path string, blocks []colf.BlockInfo) *tix.Index {
	t.Helper()
	ix, err := tix.Open(path, f.binding, blocks, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	if err := ix.Extend(f.openSamples(t), blocks, f.world.Index); err != nil {
		t.Fatal(err)
	}
	return ix
}

// refFold is the ground truth: a cold in-memory fold of every sample
// in [since, until), with exactly the pass semantics of
// core.WindowCDFPass — lost rows skipped, unknown probes skipped,
// delivered RTTs grouped by the probe's continent.
func (f *fixture) refFold(t testing.TB, since, until time.Time) (map[geo.Continent]*stats.Dist, uint64, uint64) {
	return f.refFoldSamples(t, f.samples, since, until)
}

func (f *fixture) refFoldSamples(t testing.TB, samples []results.Sample, since, until time.Time) (map[geo.Continent]*stats.Dist, uint64, uint64) {
	t.Helper()
	dists := make(map[geo.Continent]*stats.Dist)
	var rows, delivered uint64
	for _, s := range samples {
		if !since.IsZero() && s.Time.Before(since) {
			continue
		}
		if !until.IsZero() && !s.Time.Before(until) {
			continue
		}
		rows++
		if s.Lost {
			continue
		}
		delivered++
		if !f.world.Index.Known(s.ProbeID) {
			continue
		}
		ct, ok := f.world.Index.Continent(s.ProbeID)
		if !ok {
			continue
		}
		d := dists[ct]
		if d == nil {
			d = &stats.Dist{}
			dists[ct] = d
		}
		if err := d.Add(s.RTTms); err != nil {
			t.Fatal(err)
		}
	}
	return dists, rows, delivered
}

// assertDistsIdentical compares two per-continent distribution sets by
// the quantities the serving layer publishes: sample counts, a dense
// quantile sweep, and the figure curve. Identical multisets make every
// one of these bit-identical; any drift is a real divergence.
func assertDistsIdentical(t testing.TB, got, want map[geo.Continent]*stats.Dist) {
	t.Helper()
	grid := core.DefaultGrid()
	for _, ct := range geo.Continents() {
		gd, wd := got[ct], want[ct]
		gn, wn := 0, 0
		if gd != nil {
			gn = gd.N()
		}
		if wd != nil {
			wn = wd.N()
		}
		if gn != wn {
			t.Fatalf("%v: index has %d samples, reference %d", ct, gn, wn)
		}
		if gn == 0 {
			continue
		}
		for q := 0; q <= 100; q++ {
			gq, err1 := gd.Quantile(float64(q) / 100)
			wq, err2 := wd.Quantile(float64(q) / 100)
			if err1 != nil || err2 != nil {
				t.Fatalf("%v: quantile errors %v / %v", ct, err1, err2)
			}
			if gq != wq {
				t.Fatalf("%v: q%d = %v via index, %v via reference", ct, q, gq, wq)
			}
		}
		gc, err1 := gd.Curve(grid)
		wc, err2 := wd.Curve(grid)
		if err1 != nil || err2 != nil {
			t.Fatalf("%v: curve errors %v / %v", ct, err1, err2)
		}
		if !reflect.DeepEqual(gc, wc) {
			t.Fatalf("%v: CDF curve diverges between index and reference", ct)
		}
	}
}

// assertCurvesIdentical holds a window result's curve side to the
// reference distributions: per continent, N must equal Dist.N() and
// Curves() must equal Dist.Curve(Grid()) bit for bit — the numbers a
// /cdf body prints.
func assertCurvesIdentical(t testing.TB, res *tix.Result, want map[geo.Continent]*stats.Dist) {
	t.Helper()
	curves := res.Curves()
	wantSamples := 0
	for _, ct := range geo.Continents() {
		wd := want[ct]
		if wd == nil || wd.N() == 0 {
			if n, ok := res.N[ct]; ok {
				t.Fatalf("%v: result has N %d, reference has no samples", ct, n)
			}
			if curves[ct] != nil {
				t.Fatalf("%v: result has a curve, reference has no samples", ct)
			}
			continue
		}
		if res.N[ct] != wd.N() {
			t.Fatalf("%v: result N %d, reference %d", ct, res.N[ct], wd.N())
		}
		wantSamples += wd.N()
		wc, err := wd.Curve(tix.Grid())
		if err != nil {
			t.Fatal(err)
		}
		gc := curves[ct]
		if len(gc) != len(wc) {
			t.Fatalf("%v: curve has %d points, reference %d", ct, len(gc), len(wc))
		}
		for k := range wc {
			if math.Float64bits(gc[k].X) != math.Float64bits(wc[k].X) ||
				math.Float64bits(gc[k].P) != math.Float64bits(wc[k].P) {
				t.Fatalf("%v: curve point %d = %+v, reference %+v", ct, k, gc[k], wc[k])
			}
		}
	}
	if res.Samples() != wantSamples {
		t.Fatalf("result holds %d samples, reference %d", res.Samples(), wantSamples)
	}
}

// sampleTime picks the timestamp of the i-th sample (clamped).
func (f *fixture) sampleTime(i int) time.Time {
	if i < 0 {
		i = 0
	}
	if i >= len(f.samples) {
		i = len(f.samples) - 1
	}
	return f.samples[i].Time
}

// TestQueryMatchesColdFold is the byte-identity gate: across full,
// unbounded, block-splitting, empty and past-frontier windows — plus a
// batch of randomly chosen boundaries — the index-composed window must
// match a cold fold exactly.
func TestQueryMatchesColdFold(t *testing.T) {
	f := getFixture(t)
	if len(f.blocks) < 16 {
		t.Fatalf("fixture sealed only %d blocks; tests need a real tree", len(f.blocks))
	}
	path := filepath.Join(t.TempDir(), "samples.tix")
	ix := f.build(t, path, f.blocks)
	sf := f.openSamples(t)
	v := ix.View()
	ctx := context.Background()
	// A second handle opened over the written file holds the curve
	// summaries decoded at open rather than the ones Extend kept.
	reopened, err := tix.Open(path, f.binding, f.blocks, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Nodes() != ix.Nodes() {
		t.Fatalf("reopen kept %d of %d nodes", reopened.Nodes(), ix.Nodes())
	}
	rv := reopened.View()

	start := f.samples[0].Time
	end := f.samples[len(f.samples)-1].Time

	type window struct {
		name         string
		since, until time.Time
	}
	wins := []window{
		{"full", time.Time{}, time.Time{}},
		{"exact-span", start, end.Add(time.Nanosecond)},
		{"open-since", time.Time{}, f.sampleTime(len(f.samples) / 2)},
		{"open-until", f.sampleTime(len(f.samples) / 2), time.Time{}},
		{"mid-block-splitting", f.sampleTime(fixBlockRows / 2).Add(time.Nanosecond), f.sampleTime(len(f.samples) - fixBlockRows/3)},
		{"single-block-interior", f.sampleTime(fixBlockRows / 4), f.sampleTime(fixBlockRows / 2)},
		{"empty-zero-width", start.Add(time.Hour), start.Add(time.Hour)},
		{"empty-before-campaign", start.Add(-48 * time.Hour), start.Add(-24 * time.Hour)},
		{"empty-after-campaign", end.Add(24 * time.Hour), end.Add(48 * time.Hour)},
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 12; i++ {
		a, b := rng.Intn(len(f.samples)), rng.Intn(len(f.samples))
		if a > b {
			a, b = b, a
		}
		wins = append(wins, window{
			name:  "random-" + string(rune('a'+i)),
			since: f.sampleTime(a),
			until: f.sampleTime(b),
		})
	}

	for _, w := range wins {
		t.Run(w.name, func(t *testing.T) {
			res, err := v.Query(ctx, sf, f.blocks, w.since, w.until, f.world.Index)
			if err != nil {
				t.Fatal(err)
			}
			want, rows, delivered := f.refFold(t, w.since, w.until)
			if res.Rows != rows || res.Delivered != delivered {
				t.Fatalf("window covers %d/%d rows/delivered, reference %d/%d",
					res.Rows, res.Delivered, rows, delivered)
			}
			assertDistsIdentical(t, res.ByContinent, want)
			assertCurvesIdentical(t, res, want)

			// The curve-only composition answers the same window from
			// resident summaries: same N and curves, same accounting,
			// no distributions.
			cres, err := v.QueryCurves(ctx, sf, f.blocks, w.since, w.until, f.world.Index)
			if err != nil {
				t.Fatal(err)
			}
			if cres.ByContinent != nil {
				t.Fatal("QueryCurves materialized distributions")
			}
			if cres.Rows != rows || cres.Delivered != delivered || cres.Stats != res.Stats {
				t.Fatalf("QueryCurves covers %d/%d rows/delivered via %+v; Query %d/%d via %+v",
					cres.Rows, cres.Delivered, cres.Stats, res.Rows, res.Delivered, res.Stats)
			}
			assertCurvesIdentical(t, cres, want)
			rres, err := rv.QueryCurves(ctx, sf, f.blocks, w.since, w.until, f.world.Index)
			if err != nil {
				t.Fatal(err)
			}
			assertCurvesIdentical(t, rres, want)
		})
	}

	// The full window must actually be served by the tree, not by
	// decoding everything: composed nodes cover most blocks, and the
	// decode count stays logarithmic-ish, not linear.
	res, err := v.Query(ctx, sf, f.blocks, time.Time{}, time.Time{}, f.world.Index)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Nodes == 0 {
		t.Fatal("full-window query composed no segment nodes")
	}
	if dec := res.Stats.DecodedBlocks(); dec >= len(f.blocks)/2 {
		t.Fatalf("full-window query decoded %d of %d blocks", dec, len(f.blocks))
	}
	if got := res.Stats.NodeBlocks + res.Stats.DecodedBlocks() + res.Stats.SkippedBlocks; got != len(f.blocks) {
		t.Fatalf("query accounted for %d of %d blocks", got, len(f.blocks))
	}
}

// TestQueryPastFrontier extends the index over a prefix only: windows
// reaching past the built frontier must fall back to decoding the tail
// blocks and still match the cold fold.
func TestQueryPastFrontier(t *testing.T) {
	f := getFixture(t)
	prefix := len(f.blocks) / 2
	ix := f.build(t, filepath.Join(t.TempDir(), "samples.tix"), f.blocks[:prefix])
	sf := f.openSamples(t)
	v := ix.View()

	res, err := v.Query(context.Background(), sf, f.blocks, time.Time{}, time.Time{}, f.world.Index)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FrontierBlocks == 0 {
		t.Fatal("no frontier fallback decodes despite a half-built index")
	}
	want, rows, delivered := f.refFold(t, time.Time{}, time.Time{})
	if res.Rows != rows || res.Delivered != delivered {
		t.Fatalf("rows/delivered %d/%d, reference %d/%d", res.Rows, res.Delivered, rows, delivered)
	}
	assertDistsIdentical(t, res.ByContinent, want)
	cres, err := v.QueryCurves(context.Background(), sf, f.blocks, time.Time{}, time.Time{}, f.world.Index)
	if err != nil {
		t.Fatal(err)
	}
	if cres.Stats != res.Stats {
		t.Fatalf("QueryCurves composed %+v, Query %+v", cres.Stats, res.Stats)
	}
	assertCurvesIdentical(t, cres, want)
}

// TestIncrementalMatchesBatch pins build determinism: growing the
// index one flush at a time writes the exact same file bytes as one
// shot over the full store, and re-extending an up-to-date index
// appends nothing.
func TestIncrementalMatchesBatch(t *testing.T) {
	f := getFixture(t)
	sf := f.openSamples(t)

	incPath := filepath.Join(t.TempDir(), "inc.tix")
	ix, err := tix.Open(incPath, f.binding, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 3; i <= len(f.blocks); i += 3 {
		if err := ix.Extend(sf, f.blocks[:i], f.world.Index); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Extend(sf, f.blocks, f.world.Index); err != nil {
		t.Fatal(err)
	}
	nodes, frontier := ix.Nodes(), ix.Frontier()
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if frontier != len(f.blocks) {
		t.Fatalf("frontier %d after full extend of %d blocks", frontier, len(f.blocks))
	}

	batchPath := filepath.Join(t.TempDir(), "batch.tix")
	f.build(t, batchPath, f.blocks)

	inc, err := os.ReadFile(incPath)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := os.ReadFile(batchPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(inc, batch) {
		t.Fatalf("incremental build (%d bytes) diverges from batch build (%d bytes)", len(inc), len(batch))
	}

	// Reopen: everything validates, nothing rebuilds.
	re, err := tix.Open(incPath, f.binding, f.blocks, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	// The frontier reconstructs from node ends, so an odd tail block
	// reads back as not-yet-processed; the nodes themselves must all
	// survive the reopen.
	if re.Nodes() != nodes || re.Frontier() > frontier {
		t.Fatalf("reopen lost state: %d/%d nodes, %d/%d frontier", re.Nodes(), nodes, re.Frontier(), frontier)
	}
	if err := re.Extend(sf, f.blocks, f.world.Index); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(incPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, inc) {
		t.Fatal("idempotent re-extend changed the file")
	}
}

// TestBindingInvalidation: an index written under one binding must be
// discarded wholesale when reopened under another — the cold-fallback
// discipline shared with the snapshot sidecar.
func TestBindingInvalidation(t *testing.T) {
	f := getFixture(t)
	path := filepath.Join(t.TempDir(), "samples.tix")
	ix := f.build(t, path, f.blocks)
	if ix.Nodes() == 0 {
		t.Fatal("fixture index is empty")
	}
	ix.Close()

	other := f.binding
	other.Meta = "0000000000000000"
	re, err := tix.Open(path, other, f.blocks, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Nodes() != 0 || re.Frontier() != 0 {
		t.Fatalf("binding mismatch kept %d nodes, frontier %d", re.Nodes(), re.Frontier())
	}
	// And the file on disk was actually reset, not just ignored.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() > 256 {
		t.Fatalf("reset index still holds %d bytes", st.Size())
	}
}

// TestCorruptionTruncatesSuffix: a flipped byte inside one record must
// drop that record and everything after it, keep the valid prefix, and
// let the next Extend grow the index back to a correct, queryable
// state.
func TestCorruptionTruncatesSuffix(t *testing.T) {
	f := getFixture(t)
	path := filepath.Join(t.TempDir(), "samples.tix")
	ix := f.build(t, path, f.blocks)
	nodes := ix.Nodes()
	ix.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)*2/3] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := tix.Open(path, f.binding, f.blocks, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Nodes() >= nodes {
		t.Fatalf("corruption kept all %d nodes", re.Nodes())
	}
	sf := f.openSamples(t)
	if err := re.Extend(sf, f.blocks, f.world.Index); err != nil {
		t.Fatal(err)
	}
	if re.Nodes() != nodes {
		t.Fatalf("rebuilt index has %d nodes, want %d", re.Nodes(), nodes)
	}
	res, err := re.View().Query(context.Background(), sf, f.blocks, time.Time{}, time.Time{}, f.world.Index)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := f.refFold(t, time.Time{}, time.Time{})
	assertDistsIdentical(t, res.ByContinent, want)
}

// TestTornTailTruncated: a partial trailing record (a crash mid-append)
// is silently dropped at open.
func TestTornTailTruncated(t *testing.T) {
	f := getFixture(t)
	path := filepath.Join(t.TempDir(), "samples.tix")
	ix := f.build(t, path, f.blocks)
	nodes := ix.Nodes()
	ix.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := tix.Open(path, f.binding, f.blocks, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Nodes() != nodes-1 {
		t.Fatalf("torn tail left %d nodes, want %d", re.Nodes(), nodes-1)
	}
}

// TestStoreTruncationInvalidatesNodes: shrinking the sealed block list
// (a checkpoint rollback) must drop every node that no longer fits,
// because node byte ranges are pinned to the store's block layout.
func TestStoreTruncationInvalidatesNodes(t *testing.T) {
	f := getFixture(t)
	path := filepath.Join(t.TempDir(), "samples.tix")
	ix := f.build(t, path, f.blocks)
	ix.Close()

	short := f.blocks[:2]
	re, err := tix.Open(path, f.binding, short, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Frontier() > len(short) {
		t.Fatalf("frontier %d past the %d-block store", re.Frontier(), len(short))
	}
	sf := f.openSamples(t)
	if err := re.Extend(sf, short, f.world.Index); err != nil {
		t.Fatal(err)
	}
	res, err := re.View().Query(context.Background(), sf, short, time.Time{}, time.Time{}, f.world.Index)
	if err != nil {
		t.Fatal(err)
	}
	// Rounds share timestamps, so the reference must cut by position —
	// the first two blocks hold exactly the first 2*fixBlockRows
	// samples — not by a time window.
	want, _, _ := f.refFoldSamples(t, f.samples[:2*fixBlockRows], time.Time{}, time.Time{})
	assertDistsIdentical(t, res.ByContinent, want)
}

// TestQueryCurvesReadsNoSlabs proves the curve-only path is served from
// resident summaries: with every node payload in the sidecar
// overwritten after the view was taken, QueryCurves still answers
// exactly as before, while Query — which reads slabs back — trips the
// per-read CRC check.
func TestQueryCurvesReadsNoSlabs(t *testing.T) {
	f := getFixture(t)
	path := filepath.Join(t.TempDir(), "samples.tix")
	ix := f.build(t, path, f.blocks)
	sf := f.openSamples(t)
	v := ix.View()
	ctx := context.Background()
	type window struct{ since, until time.Time }
	wins := []window{
		{},
		{f.sampleTime(fixBlockRows / 3), f.sampleTime(len(f.samples) - fixBlockRows/2)},
	}
	before := make([]*tix.Result, len(wins))
	for i, w := range wins {
		res, err := v.QueryCurves(ctx, sf, f.blocks, w.since, w.until, f.world.Index)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Nodes == 0 {
			t.Fatalf("window %d composed no nodes; the test proves nothing", i)
		}
		before[i] = res
	}

	// Overwrite every node record's payload in place (framing and CRCs
	// stay, so each now fails its checksum).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wf, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer wf.Close()
	overwritten := 0
	for off := 8; off < len(data); {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if data[off+4] == 0x01 { // node record
			if _, err := wf.WriteAt(bytes.Repeat([]byte{0xA5}, n), int64(off+4)); err != nil {
				t.Fatal(err)
			}
			overwritten++
		}
		off += 4 + n + 4
	}
	if overwritten != ix.Nodes() {
		t.Fatalf("overwrote %d node payloads, index holds %d nodes", overwritten, ix.Nodes())
	}

	for i, w := range wins {
		res, err := v.QueryCurves(ctx, sf, f.blocks, w.since, w.until, f.world.Index)
		if err != nil {
			t.Fatalf("window %d: QueryCurves read the sidecar: %v", i, err)
		}
		if !reflect.DeepEqual(res.N, before[i].N) || !reflect.DeepEqual(res.Curves(), before[i].Curves()) ||
			res.Rows != before[i].Rows || res.Delivered != before[i].Delivered || res.Stats != before[i].Stats {
			t.Fatalf("window %d: QueryCurves answer changed after the sidecar was overwritten", i)
		}
		if _, err := v.Query(ctx, sf, f.blocks, w.since, w.until, f.world.Index); err == nil ||
			!strings.Contains(err.Error(), "CRC") {
			t.Fatalf("window %d: Query over overwritten slabs returned %v, want a CRC failure", i, err)
		}
	}
}

// TestQueryCurvesAllocsFlat: composing a window from resident curve
// summaries allocates the same whether it spans one 2-block node, one
// 128-block node, or the six nodes of blocks [2, 128) — per-query work
// is O(continents × bins), independent of the window's size. The store
// is the fixture's samples re-timed one second apart and sealed every
// allocBlockRows rows, so block boundaries are exact window bounds and
// no edge block is decoded.
func TestQueryCurvesAllocsFlat(t *testing.T) {
	f := getFixture(t)
	const allocBlockRows = 64
	samples := append([]results.Sample(nil), f.samples...)
	base := samples[0].Time
	for i := range samples {
		samples[i].Time = base.Add(time.Duration(i) * time.Second)
	}
	store, blocks := f.writeStore(t, samples, allocBlockRows)
	if len(blocks) < 128 {
		t.Fatalf("store sealed only %d blocks; the test needs 128", len(blocks))
	}
	sf, err := os.Open(store.SamplesPath())
	if err != nil {
		t.Fatal(err)
	}
	defer sf.Close()
	ix, err := tix.Open(filepath.Join(t.TempDir(), "samples.tix"), f.binding, blocks, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if err := ix.Extend(sf, blocks, f.world.Index); err != nil {
		t.Fatal(err)
	}
	v := ix.View()
	ctx := context.Background()
	blockTime := func(b int) time.Time { return samples[b*allocBlockRows].Time }

	allocs := make(map[string]float64)
	for _, w := range []struct {
		name          string
		lo, hi, nodes int
	}{
		{"2-block", 0, 2, 1},
		{"128-block", 0, 128, 1},
		{"blocks-2-128", 2, 128, 6},
	} {
		since, until := blockTime(w.lo), blockTime(w.hi)
		res, err := v.QueryCurves(ctx, sf, blocks, since, until, f.world.Index)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Nodes != w.nodes || res.Stats.NodeBlocks != w.hi-w.lo || res.Stats.DecodedBlocks() != 0 {
			t.Fatalf("%s: composed %+v, want %d nodes over %d blocks and no decodes", w.name, res.Stats, w.nodes, w.hi-w.lo)
		}
		want, _, _ := f.refFoldSamples(t, samples[w.lo*allocBlockRows:w.hi*allocBlockRows], time.Time{}, time.Time{})
		assertCurvesIdentical(t, res, want)
		allocs[w.name] = testing.AllocsPerRun(20, func() {
			if _, err := v.QueryCurves(ctx, sf, blocks, since, until, f.world.Index); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Logf("allocations per query: %v", allocs)
	if allocs["128-block"] > allocs["2-block"] || allocs["blocks-2-128"] > allocs["2-block"] {
		t.Fatalf("allocations grow with the window: %v", allocs)
	}
}
