package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/atlas"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/snap"
	"repro/internal/world"
)

func TestRunBuildsDataset(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	if err := run(options{out: dir, probes: 200, seed: 1, days: 2, quiet: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoint.json")); !os.IsNotExist(err) {
		t.Error("completed run left a checkpoint behind")
	}
	store, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if store.Format() != results.FormatBinary {
		t.Errorf("default store format = %v, want binary", store.Format())
	}
	meta := store.Meta()
	if meta.Probes != 200 || meta.Regions != 101 {
		t.Errorf("meta = %+v", meta)
	}
	n := 0
	if err := store.ForEach(func(results.Sample) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	// 2 days x 8 rounds x ~190 public probes x 2 targets.
	if n < 1000 {
		t.Errorf("dataset has only %d samples", n)
	}
}

func TestRunBuildsTemporalIndex(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	if err := run(options{out: dir, probes: 200, seed: 1, days: 2, quiet: true}); err != nil {
		t.Fatal(err)
	}
	store, err := results.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(store.TixPath())
	if err != nil {
		t.Fatalf("binary run built no temporal index: %v", err)
	}
	if fi.Size() == 0 {
		t.Error("temporal index is empty")
	}

	off := filepath.Join(t.TempDir(), "ds")
	if err := run(options{out: off, probes: 200, seed: 1, days: 2, quiet: true, tix: "off"}); err != nil {
		t.Fatal(err)
	}
	offStore, err := results.Open(off)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(offStore.TixPath()); !os.IsNotExist(err) {
		t.Errorf("-tix off still produced an index (err=%v)", err)
	}

	if err := run(options{out: t.TempDir(), probes: 200, seed: 1, days: 1, quiet: true, tix: "bogus"}); err == nil {
		t.Error("invalid -tix mode accepted")
	}
}

func TestRunWithFigures(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	// 4 days is enough for every figure including the weekly Fig 7 bins.
	if err := run(options{out: dir, probes: 250, seed: 1, days: 4}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if err := run(options{out: t.TempDir(), probes: 0, seed: 1, days: 1, quiet: true}); err == nil {
		t.Error("zero probes accepted")
	}
}

func TestRunWritesArtifacts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	figDir := filepath.Join(t.TempDir(), "figs")
	if err := run(options{out: dir, probes: 250, seed: 1, days: 7, quiet: true, figDir: figDir}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"figure1.csv", "figure1.svg", "figure4.csv", "figure5.csv",
		"figure5.svg", "figure6.csv", "figure6.svg", "figure7.csv",
		"figure7.svg", "figure8.csv",
	} {
		info, err := os.Stat(filepath.Join(figDir, name))
		if err != nil {
			t.Errorf("%s missing: %v", name, err)
			continue
		}
		if info.Size() == 0 {
			t.Errorf("%s is empty", name)
		}
	}
}

// TestRunWritesTrace is the campaign-scale telemetry smoke test: a small
// run with -trace must emit a well-formed span tree whose root covers
// world build -> campaign (with per-round fan-out) -> figure generation.
func TestRunWritesTrace(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	// A tiny progress interval exercises the reporter goroutine too.
	if err := run(options{out: dir, probes: 250, seed: 1, days: 4, tracePath: tracePath, progressEvery: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var root obs.SpanDump
	if err := json.Unmarshal(raw, &root); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if root.Name != "shears.run" || root.End.IsZero() || root.DurationMs <= 0 {
		t.Fatalf("bad root span: %+v", root)
	}
	byName := map[string]obs.SpanDump{}
	for _, c := range root.Children {
		byName[c.Name] = c
	}
	for _, want := range []string{"world.build", "snapshot.follow", "campaign", "results.flush", "tix.build", "figures", "snapshot.write"} {
		c, ok := byName[want]
		if !ok {
			t.Errorf("root lacks %q child; has %d children", want, len(root.Children))
			continue
		}
		if c.End.IsZero() {
			t.Errorf("%q span not closed", want)
		}
	}
	camp := byName["campaign"]
	if len(camp.Children) != 32 { // 4 days x 8 rounds
		t.Errorf("campaign has %d round spans, want 32", len(camp.Children))
	}
	var samples float64
	for _, r := range camp.Children {
		if r.Name != "round" {
			t.Errorf("unexpected campaign child %q", r.Name)
		}
		samples += r.Attrs["samples"].(float64)
	}
	if samples == 0 {
		t.Error("round spans carry no samples")
	}
	figs := byName["figures"]
	if len(figs.Children) == 0 {
		t.Error("figures span has no children")
	}
	var sawScan bool
	for _, c := range figs.Children {
		if c.Name == "scan" {
			sawScan = true
			if c.Attrs["samples"].(float64) == 0 {
				t.Error("scan span carries no samples")
			}
			continue
		}
		if !strings.HasPrefix(c.Name, "figure:") {
			t.Errorf("unexpected figures child %q", c.Name)
		}
	}
	if !sawScan {
		t.Error("figures span lacks the fused dataset scan child")
	}
}

// TestRunServesStatusEndpoints polls the -status-addr endpoints while
// the campaign executes: /metrics, /debug/events, and /api/v1/progress
// must all serve real data mid-run. The onRound hook blocks the engine's
// merger after the second merged round, so the polls below observe a
// campaign that is genuinely still running.
func TestRunServesStatusEndpoints(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	ready := make(chan string, 1)
	midRun := make(chan struct{})
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock()
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(options{
			out: dir, probes: 250, seed: 1, days: 2, quiet: true, workers: 2,
			logDst:     io.Discard,
			statusAddr: "127.0.0.1:0",
			statusReady: func(addr string) {
				select {
				case ready <- addr:
				default:
				}
			},
			onRound: func(round int, _ uint64) {
				if round == 1 {
					close(midRun)
					<-release
				}
			},
		})
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-errCh:
		t.Fatalf("run finished before the status server came up: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("status server never came up")
	}
	select {
	case <-midRun:
	case err := <-errCh:
		t.Fatalf("run finished before reaching round 2: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("campaign never reached round 2")
	}

	get := func(path string) []byte {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return b
	}

	var p struct {
		RunID    string `json:"run_id"`
		Campaign struct {
			RoundsDone  float64 `json:"rounds_done"`
			RoundsTotal float64 `json:"rounds_total"`
			Samples     uint64  `json:"samples"`
		} `json:"campaign"`
	}
	if b := get("/api/v1/progress"); true {
		if err := json.Unmarshal(b, &p); err != nil {
			t.Fatalf("progress is not JSON: %v\n%s", err, b)
		}
	}
	if p.RunID == "" {
		t.Error("progress lacks a run ID")
	}
	if p.Campaign.RoundsTotal != 16 { // 2 days x 8 rounds
		t.Errorf("rounds_total = %v, want 16", p.Campaign.RoundsTotal)
	}
	if p.Campaign.RoundsDone < 2 || p.Campaign.RoundsDone >= p.Campaign.RoundsTotal {
		t.Errorf("mid-run rounds_done = %v, want in [2, 16)", p.Campaign.RoundsDone)
	}
	if p.Campaign.Samples == 0 {
		t.Error("mid-run progress reports zero samples")
	}

	metrics := string(get("/metrics"))
	for _, want := range []string{"atlas_campaign_rounds_total 16", "engine_rounds_merged", "atlas_campaign_samples_total{"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("mid-run /metrics lacks %q", want)
		}
	}

	var d struct {
		Total  uint64 `json:"total"`
		Events []struct {
			Level     string `json:"level"`
			Component string `json:"component"`
			Msg       string `json:"msg"`
		} `json:"events"`
	}
	if b := get("/debug/events"); true {
		if err := json.Unmarshal(b, &d); err != nil {
			t.Fatalf("events dump is not JSON: %v\n%s", err, b)
		}
	}
	if d.Total == 0 || len(d.Events) == 0 {
		t.Fatalf("mid-run flight recorder is empty: %+v", d)
	}
	var sawWorld bool
	for _, e := range d.Events {
		if e.Msg == "world built" && e.Component == "shears" {
			sawWorld = true
		}
	}
	if !sawWorld {
		t.Errorf("flight recorder lacks the world-built event: %+v", d.Events)
	}

	unblock() // let the merger finish the campaign
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("run did not finish")
	}
}

// TestRunWritesManifest checks the run.json evidence bundle: identity,
// flags-independent defaults, per-stage durations, and throughput.
func TestRunWritesManifest(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	if err := run(options{out: dir, probes: 200, seed: 1, days: 2, quiet: true, logDst: io.Discard}); err != nil {
		t.Fatal(err)
	}
	m, err := obs.ReadRunManifest(filepath.Join(dir, "run.json"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Binary != "shears" || m.RunID == "" || m.GoVersion == "" {
		t.Errorf("manifest identity: %+v", m)
	}
	if m.Samples == 0 || m.SamplesPerSec <= 0 {
		t.Errorf("manifest throughput: samples=%d samples/s=%v", m.Samples, m.SamplesPerSec)
	}
	if m.WorldFingerprint == "" || m.Workers < 1 {
		t.Errorf("manifest workload: fingerprint=%q workers=%d", m.WorldFingerprint, m.Workers)
	}
	if m.DurationMs <= 0 || m.End.Before(m.Start) {
		t.Errorf("manifest window: start=%v end=%v duration=%vms", m.Start, m.End, m.DurationMs)
	}
	stages := map[string]bool{}
	for _, s := range m.Stages {
		if s.DurationMs < 0 {
			t.Errorf("stage %q has negative duration", s.Name)
		}
		stages[s.Name] = true
	}
	for _, want := range []string{"world.build", "campaign", "results.flush"} {
		if !stages[want] {
			t.Errorf("manifest lacks stage %q; has %v", want, m.Stages)
		}
	}
}

// TestRunWritesChromeTrace validates the exported Chrome trace-event
// JSON: the derived .chrome.json file must parse, contain only complete
// (ph "X") events with µs timestamps, and round-trip through ParseTrace.
func TestRunWritesChromeTrace(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	if err := run(options{out: dir, probes: 200, seed: 1, days: 2, quiet: true, tracePath: tracePath, logDst: io.Discard}); err != nil {
		t.Fatal(err)
	}
	chromePath := chromeTracePath(tracePath)
	raw, err := os.ReadFile(chromePath)
	if err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &ct); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
	names := map[string]bool{}
	for _, e := range ct.TraceEvents {
		if e.Ph != "X" {
			t.Errorf("event %q ph = %q, want X", e.Name, e.Ph)
		}
		if e.Pid < 1 || e.Tid < 1 || e.Ts < 0 || e.Dur < 0 {
			t.Errorf("event %q schema violation: pid=%d tid=%d ts=%v dur=%v", e.Name, e.Pid, e.Tid, e.Ts, e.Dur)
		}
		names[e.Name] = true
	}
	for _, want := range []string{"shears.run", "world.build", "snapshot.follow", "campaign", "round", "tix.build", "snapshot.write"} {
		if !names[want] {
			t.Errorf("chrome trace lacks %q span", want)
		}
	}
	// The same file must reconstruct into a span tree via ParseTrace.
	d, err := obs.ParseTrace(raw)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "shears.run" {
		t.Errorf("reconstructed root = %q, want shears.run", d.Name)
	}
}

// TestRunWorkerCountInvariance is the end-to-end determinism check: the
// same flags with different -workers produce byte-identical datasets,
// in both storage formats.
func TestRunWorkerCountInvariance(t *testing.T) {
	for _, tc := range []struct {
		format string
		file   string
	}{{"", "samples.bin"}, {"jsonl", "samples.jsonl"}} {
		read := func(workers int) []byte {
			dir := filepath.Join(t.TempDir(), "ds")
			if err := run(options{out: dir, probes: 200, seed: 3, days: 2, quiet: true, workers: workers, format: tc.format}); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(filepath.Join(dir, tc.file))
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		serial := read(1)
		if parallel := read(7); !bytes.Equal(serial, parallel) {
			t.Errorf("format=%q: workers=7 dataset differs from workers=1", tc.format)
		}
	}
}

func TestRunResumeErrors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	// Nothing to resume: no checkpoint exists.
	err := run(options{out: dir, probes: 200, seed: 1, days: 1, quiet: true, resume: true})
	if !errors.Is(err, engine.ErrNoCheckpoint) {
		t.Fatalf("resume without checkpoint: err = %v, want ErrNoCheckpoint", err)
	}

	// A checkpoint from different campaign parameters must be refused.
	if err := run(options{out: dir, probes: 200, seed: 1, days: 1, quiet: true}); err != nil {
		t.Fatal(err)
	}
	cp := engine.Checkpoint{
		Version: 1, Fingerprint: "deadbeefdeadbeef", Workers: 2,
		Round: 3, Samples: 10, SinkOffset: 100,
	}
	if err := cp.Save(filepath.Join(dir, "checkpoint.json")); err != nil {
		t.Fatal(err)
	}
	err = run(options{out: dir, probes: 200, seed: 9, days: 1, quiet: true, resume: true})
	if err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("fingerprint mismatch not refused: %v", err)
	}
}

// figureCSVs are the CSV artifacts the byte-identity tests compare.
var figureCSVs = []string{"figure1.csv", "figure4.csv", "figure5.csv", "figure6.csv", "figure7.csv", "figure8.csv"}

// coldReference copies the finished store at dir into a fresh
// directory and analyzes it with no snapshot in sight. It returns the
// snapshot a fresh core.ScanStoreSnap writes there and a directory
// holding the CSVs rendered from a cold core.ScanStore.
func coldReference(t *testing.T, dir string, o options) (snapBytes []byte, csvDir string) {
	t.Helper()
	ref := filepath.Join(t.TempDir(), "ref")
	if err := os.MkdirAll(ref, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"meta.json", "samples.bin"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(ref, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	w, err := world.Build(world.Config{Seed: o.seed, Probes: o.probes})
	if err != nil {
		t.Fatal(err)
	}
	store, err := results.Open(ref)
	if err != nil {
		t.Fatal(err)
	}
	cfg := atlas.TestCampaign()
	ctx := context.Background()
	if _, _, err := core.ScanStoreSnap(ctx, store, w.Index, cfg.Start, binWidth, o.workers, nil,
		core.SnapshotOptions{Path: store.SnapshotPath()}); err != nil {
		t.Fatal(err)
	}
	if snapBytes, err = os.ReadFile(store.SnapshotPath()); err != nil {
		t.Fatal(err)
	}
	rep, _, err := core.ScanStore(ctx, store, w.Index, cfg.Start, binWidth, o.workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	csvDir = filepath.Join(t.TempDir(), "figs")
	if err := writeArtifacts(csvDir, rep, cfg, obs.NewTrace("reference")); err != nil {
		t.Fatal(err)
	}
	return snapBytes, csvDir
}

// sameFiles fails the test unless dirs a and b hold byte-equal copies
// of every named file.
func sameFiles(t *testing.T, what, a, b string, names ...string) {
	t.Helper()
	for _, name := range names {
		x, err := os.ReadFile(filepath.Join(a, name))
		if err != nil {
			t.Fatal(err)
		}
		y, err := os.ReadFile(filepath.Join(b, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(x, y) {
			t.Errorf("%s: %s differs (%d vs %d bytes)", what, name, len(x), len(y))
		}
	}
}

// TestRunSnapshotMatchesColdScan pins the resident follower's output:
// the snapshot a checkpointing run writes once at the end equals the
// one a fresh scan writes over the finished store, and the figure CSVs
// rendered from the resident state equal a cold scan's, at any worker
// count.
func TestRunSnapshotMatchesColdScan(t *testing.T) {
	for _, workers := range []int{1, 7} {
		o := options{
			out: filepath.Join(t.TempDir(), "ds"), figDir: filepath.Join(t.TempDir(), "figs"),
			probes: 200, seed: 3, days: 4, quiet: true, workers: workers,
			checkpointEvery: 4, logDst: io.Discard,
		}
		if err := run(o); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(o.out, "samples.snap"))
		if err != nil {
			t.Fatal(err)
		}
		want, csvDir := coldReference(t, o.out, o)
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: samples.snap differs from a fresh scan's (%d vs %d bytes)", workers, len(got), len(want))
		}
		sameFiles(t, fmt.Sprintf("workers=%d", workers), o.figDir, csvDir, figureCSVs...)
	}
}

// TestRunResumeMatchesUninterrupted cancels a checkpointing campaign
// mid-run and resumes it: the interrupted run leaves a snapshot of its
// folded prefix that seeds the rerun, and the resumed run ends with the
// same samples.snap and CSV bytes as a run that never stopped.
func TestRunResumeMatchesUninterrupted(t *testing.T) {
	base := options{probes: 200, seed: 3, days: 4, quiet: true, workers: 2, checkpointEvery: 4, logDst: io.Discard}

	ref := base
	ref.out, ref.figDir = filepath.Join(t.TempDir(), "ds"), filepath.Join(t.TempDir(), "figs")
	if err := run(ref); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cut := base
	cut.out, cut.figDir = filepath.Join(t.TempDir(), "ds"), filepath.Join(t.TempDir(), "figs")
	cut.ctx = ctx
	cut.onRound = func(round int, _ uint64) {
		if round == 13 { // after the checkpoints at rounds 3, 7 and 11
			cancel()
		}
	}
	if err := run(cut); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: err = %v, want context.Canceled", err)
	}
	if _, err := os.Stat(filepath.Join(cut.out, checkpointFile)); err != nil {
		t.Fatalf("interrupted run left no checkpoint: %v", err)
	}

	resumed := cut
	resumed.ctx, resumed.onRound, resumed.resume = nil, nil, true
	resumed.reg = obs.NewRegistry()
	if err := run(resumed); err != nil {
		t.Fatal(err)
	}
	if hits := snap.NewMetrics(resumed.reg).Hits.Value(); hits != 1 {
		t.Errorf("resumed run: snap_hits_total = %d, want 1 (seeded from the interrupted run's snapshot)", hits)
	}
	sameFiles(t, "resumed", ref.out, resumed.out, "samples.bin", "samples.snap")
	sameFiles(t, "resumed", ref.figDir, resumed.figDir, figureCSVs...)
}

// TestRunQuietWritesSnapshot checks that a -quiet run with no figure
// output still leaves a snapshot covering the whole store, written
// exactly once — from the resident state with and without checkpoints,
// and through the rescan fallback on a JSONL store: a later scan is
// then a pure hit that decodes nothing.
func TestRunQuietWritesSnapshot(t *testing.T) {
	for _, tc := range []struct {
		format, snapshot string
		every            int
	}{{"", "", 0}, {"", "", 4}, {"jsonl", "on", 4}} {
		o := options{
			out: filepath.Join(t.TempDir(), "ds"), probes: 200, seed: 1, days: 2, quiet: true,
			format: tc.format, snapshot: tc.snapshot, checkpointEvery: tc.every,
			reg: obs.NewRegistry(), logDst: io.Discard,
		}
		if err := run(o); err != nil {
			t.Fatal(err)
		}
		if writes := snap.NewMetrics(o.reg).Writes.Value(); writes != 1 {
			t.Errorf("%+v: snap_writes_total = %d, want 1", tc, writes)
		}
		w, err := world.Build(world.Config{Seed: o.seed, Probes: o.probes})
		if err != nil {
			t.Fatal(err)
		}
		store, err := results.Open(o.out)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := core.ScanStoreSnap(context.Background(), store, w.Index, atlas.TestCampaign().Start, binWidth, 2, nil,
			core.SnapshotOptions{Path: store.SnapshotPath()})
		if err != nil {
			t.Fatal(err)
		}
		if st.Samples != 0 || st.BlocksRead != 0 {
			t.Errorf("%+v: scan after the run decoded %d samples in %d blocks, want a pure hit", tc, st.Samples, st.BlocksRead)
		}
	}
}
