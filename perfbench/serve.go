package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/atlas"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/scan"
	"repro/internal/serve"
	"repro/internal/snap"
	"repro/internal/world"
)

// served is a dataset with a serving engine over it.
type served struct {
	dir     string
	w       *world.World
	cfg     atlas.CampaignConfig
	store   *results.Store
	eng     *serve.Engine
	metrics *serve.Metrics
	samples uint64
	// tail holds the next TailDays of the campaign in checkpoint-sized
	// batches, for serve_ingest to replay.
	tail [][]results.Sample
}

func (s *served) close() {
	if s.eng != nil {
		s.eng.Close()
	}
	os.RemoveAll(s.dir)
}

// openEngine builds a serve.Engine over store exactly as atlasd's
// enableServing does; withTix false gives the scan-only engine the
// window check compares against.
func openEngine(store *results.Store, w *world.World, withTix bool) (*serve.Engine, *serve.Metrics, error) {
	reg := obs.NewRegistry()
	m := serve.NewMetrics(reg)
	opt := serve.Options{
		SnapshotPath: store.SnapshotPath(),
		Metrics:      m,
		ScanMetrics:  scan.NewMetrics(reg),
		SnapMetrics:  snap.NewMetrics(reg),
	}
	if withTix {
		opt.TixPath = store.TixPath()
	}
	eng, err := serve.NewEngine(store, w.Index, opt)
	return eng, m, err
}

// setupServe builds the served dataset and an engine ready to answer,
// size.Setups times, and keeps the last. The dataset is what `shears
// -snapshot off -tix off` writes; the engine then builds samples.tix and
// its resident state itself, as atlasd does over such a directory.
// Engine.Refresh is called where atlasd's refresher loop would poll —
// once here, and after every commit in serve_ingest — so the poll
// interval does not set any number.
func setupServe(o options, withTail bool) (*served, []float64, error) {
	ctx := context.Background()
	var (
		s      *served
		setups []float64
	)
	for i := 0; i < o.size.Setups; i++ {
		if s != nil {
			s.close()
		}
		// Collect the previous set-up's garbage outside the timing.
		runtime.GC()
		t0 := time.Now()
		w, err := world.Build(world.Config{Seed: o.seed, Probes: o.size.Probes})
		if err != nil {
			return nil, nil, err
		}
		dir, err := o.work(fmt.Sprintf("serve%d", i))
		if err != nil {
			return nil, nil, err
		}
		s = &served{dir: dir, w: w, cfg: campaignConfig(o.size.Days)}
		run, err := pipeline{dir: dir, w: w, seed: o.seed, cfg: s.cfg}.run(ctx)
		if err != nil {
			s.close()
			return nil, nil, err
		}
		s.samples = run.samples
		if s.store, err = results.Open(dir); err != nil {
			s.close()
			return nil, nil, err
		}
		if s.eng, s.metrics, err = openEngine(s.store, w, true); err != nil {
			s.close()
			return nil, nil, err
		}
		if err := s.eng.Refresh(ctx); err != nil {
			s.close()
			return nil, nil, err
		}
		if withTail {
			full := campaignConfig(o.size.Days + o.size.TailDays)
			if s.tail, err = synthTail(ctx, w, o.seed, full, s.cfg.Rounds()); err != nil {
				s.close()
				return nil, nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return s, setups, nil
}

// get runs one request through h in process.
func get(h http.Handler, target string) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec.Code, rec.Body.Bytes()
}

func cdfTarget(since, until time.Time) string {
	return "/api/v1/cdf?since=" + url.QueryEscape(since.Format(time.RFC3339)) +
		"&until=" + url.QueryEscape(until.Format(time.RFC3339))
}

// window is one [since, until) query.
type window struct{ since, until time.Time }

func (w window) target() string { return cdfTarget(w.since, w.until) }

// windowSource draws distinct, unaligned [since, until) windows inside
// [start, end) at one-second resolution, deterministically from a seed.
type windowSource struct {
	rng        *rand.Rand
	start, end time.Time
	seen       map[[2]int64]bool
	windows    []window
}

func newWindowSource(seed uint64, start, end time.Time) *windowSource {
	return &windowSource{rng: rand.New(rand.NewSource(int64(seed))), start: start, end: end, seen: make(map[[2]int64]bool)}
}

// upTo makes sure at least n windows exist and returns them.
func (ws *windowSource) upTo(n int) []window {
	span := int64(ws.end.Sub(ws.start) / time.Second)
	for len(ws.windows) < n {
		a, b := ws.rng.Int63n(span), ws.rng.Int63n(span)
		if a > b {
			a, b = b, a
		}
		if a == b || ws.seen[[2]int64{a, b}] {
			continue
		}
		ws.seen[[2]int64{a, b}] = true
		ws.windows = append(ws.windows, window{ws.start.Add(time.Duration(a) * time.Second), ws.start.Add(time.Duration(b) * time.Second)})
	}
	return ws.windows
}

// checkedBody is a response kept for the output check.
type checkedBody struct {
	target string
	body   []byte
}

// runServeWindow is the serve_window workload.
func runServeWindow(o options, prov *provenance) (*report, error) {
	s, setups, err := setupServe(o, false)
	if err != nil {
		return nil, err
	}
	defer s.close()
	rep := newReport()
	h := s.eng.Handler()
	workers := maxInFlight()
	ws := newWindowSource(o.seed, s.cfg.Start, s.cfg.End)
	var lateness []float64

	// The timed phase: latency at the base rate, then the max-qps ladder.
	// Peak RSS is read after the base-rate phase, whose request count is
	// fixed: every distinct window stays in the read cache, so the
	// ladder's rate-dependent count would make the figure track max_qps.
	settle()
	baseDur := time.Duration(0.5 * o.seconds * float64(time.Second))
	baseN := int(o.size.BaseRate * baseDur.Seconds())
	windows := ws.upTo(baseN)
	bodies := make([][]byte, baseN)
	ts := openLoop(baseN, o.size.BaseRate, workers, func(i int) bool {
		code, body := get(h, windows[i].target())
		if i%o.size.CheckEvery == 0 {
			bodies[i] = body
		}
		return code == http.StatusOK
	})
	peak := peakRSSMB()
	base := summarize(ts)
	lateness = append(lateness, base.lateness...)
	for _, t := range ts {
		rep.op(t.ok)
	}
	next := baseN
	ladderBudget := time.Duration(o.seconds*float64(time.Second)) - baseDur
	stepDur := ladderBudget / 5
	if stepDur > 2*time.Second {
		stepDur = 2 * time.Second
	}
	// The ladder starts above the base rate rather than reusing the base
	// phase, whose longer run is likelier to hold a stall of the host.
	maxQPS, rungs := ladder(o.size.BaseRate*math.Sqrt2, stepDur, ladderBudget, func(rate float64, n int) []timing {
		windows := ws.upTo(next + n)
		off := next
		next += n
		ts := openLoop(n, rate, workers, func(i int) bool {
			code, _ := get(h, windows[off+i].target())
			return code == http.StatusOK
		})
		st := summarize(ts)
		lateness = append(lateness, st.lateness...)
		for _, t := range ts {
			rep.op(t.ok)
		}
		return ts
	})
	var steps []string
	for _, r := range rungs {
		steps = append(steps, fmt.Sprintf("%.0f/s:runs=%d,p99=%.1fms,pass=%v", r.rate, len(r.runs), r.p99(), r.pass()))
	}

	// Outside the timed phase: every CheckEvery-th base-rate window must
	// match a scan-only engine byte for byte.
	var checked []checkedBody
	for i, b := range bodies {
		if b != nil {
			checked = append(checked, checkedBody{windows[i].target(), b})
		}
	}
	if err := checkWindows(rep, s, checked); err != nil {
		return nil, err
	}
	disk, err := dirBytes(s.dir)
	if err != nil {
		return nil, err
	}
	prov.LatenessP99Ms = quantile(lateness, 0.99)
	rep.set("setup_s", median(setups), "s")
	rep.set("latency_p50_ms", base.p50, "ms")
	rep.set("latency_p99_ms", segmentedP99(ts), "ms")
	rep.set("throughput_per_s", maxQPS, "1/s")
	rep.set("peak_rss_mb", peak, "MB")
	rep.set("disk_bytes_per_sample", float64(disk)/float64(s.samples), "B")
	rep.note("serve_window: %d requests at %.0f req/s, p99 of the whole phase %.2f ms, %d bodies checked; max_qps ladder (%v steps): %v",
		baseN, o.size.BaseRate, base.p99, len(checked), stepDur, steps)
	return rep, nil
}

// checkWindows replays each checked request on a scan-only engine over
// the same store and compares the bodies.
func checkWindows(rep *report, s *served, checked []checkedBody) error {
	ref, _, err := openEngine(s.store, s.w, false)
	if err != nil {
		return err
	}
	defer ref.Close()
	if err := ref.Refresh(context.Background()); err != nil {
		return err
	}
	h := ref.Handler()
	for _, c := range checked {
		code, want := get(h, c.target)
		var err error
		if code != http.StatusOK {
			err = fmt.Errorf("reference answered %d", code)
		}
		checkBody(rep, "window "+c.target, c.body, want, err)
	}
	return nil
}

// dashboard is serve_ingest's read mix: figures 4-7, three quantiles,
// and the last 24 hours of /cdf ending at the covered frontier.
var dashboard = []string{
	"/api/v1/figures/4", "/api/v1/figures/5", "/api/v1/figures/6", "/api/v1/figures/7",
	"/api/v1/quantile?p=0.5", "/api/v1/quantile?p=0.9", "/api/v1/quantile?p=0.99",
	"", // the windowed /cdf, built at request time
}

// ingestResult is what one ingest phase measured.
type ingestResult struct {
	reads     []timing
	busy      time.Duration // inside Write, Commit and Refresh
	lags      []float64     // ms from Commit returning to a published view covering it
	ingested  uint64
	cacheHits uint64
	cacheMiss uint64
}

// ingest replays s.tail into the store, one batch per interval, while
// reading the dashboard at rate. Each batch is written, committed and
// published with Engine.Refresh. span, when set, gets a child span per
// call; onBatch runs after each publish (traced runs extend a tix copy
// there).
func ingest(ctx context.Context, s *served, seed uint64, dur time.Duration, rate float64, span *obs.Span, onBatch func() error) (*ingestResult, error) {
	blocks, err := storeBlocks(s.store)
	if err != nil {
		return nil, err
	}
	resumeAt := int64(0)
	if n := len(blocks); n > 0 {
		resumeAt = blocks[n-1].Off + blocks[n-1].Len
	}
	sink, err := s.store.Resume(resumeAt)
	if err != nil {
		return nil, err
	}
	h := s.eng.Handler()
	var frontier atomic.Int64
	frontier.Store(s.cfg.End.Unix())
	rng := rand.New(rand.NewSource(int64(seed)))
	n := int(rate * dur.Seconds())
	kinds := make([]int, n)
	for i := range kinds {
		kinds[i] = rng.Intn(len(dashboard))
	}
	res := &ingestResult{}
	hits0, miss0 := s.metrics.CacheHits.Value(), s.metrics.CacheMisses.Value()
	readsDone := make(chan []timing)
	go func() {
		readsDone <- openLoop(n, rate, maxInFlight(), func(i int) bool {
			target := dashboard[kinds[i]]
			if target == "" {
				until := time.Unix(frontier.Load(), 0).UTC()
				target = cdfTarget(until.Add(-24*time.Hour), until)
			}
			rs := span.Child("serve.handler")
			code, _ := get(h, target)
			rs.End()
			return code == http.StatusOK
		})
	}()
	interval := dur / time.Duration(len(s.tail))
	t0 := time.Now()
	var ingestErr error
	for b, batch := range s.tail {
		if d := time.Until(t0.Add(time.Duration(b) * interval)); d > 0 {
			time.Sleep(d)
		}
		tw := time.Now()
		ws := span.Child("results.write")
		for _, smp := range batch {
			if ingestErr = sink.Write(smp); ingestErr != nil {
				break
			}
		}
		ws.End()
		if ingestErr != nil {
			break
		}
		cs := span.Child("results.commit")
		off, err := sink.Commit()
		cs.End()
		if err != nil {
			ingestErr = err
			break
		}
		tc := time.Now()
		rs := span.Child("serve.refresh")
		err = s.eng.Refresh(ctx)
		rs.End()
		if err != nil {
			ingestErr = err
			break
		}
		if covered := s.eng.Status().CoveredBytes; covered < off {
			ingestErr = fmt.Errorf("refresh published %d bytes, commit was at %d", covered, off)
			break
		}
		res.lags = append(res.lags, ms(time.Since(tc)))
		res.busy += time.Since(tw)
		res.ingested += uint64(len(batch))
		// The frontier is the end of the round holding the batch's last sample.
		if len(batch) > 0 {
			r := batch[len(batch)-1].Time.Sub(s.cfg.Start) / s.cfg.Interval
			frontier.Store(s.cfg.Start.Add((r + 1) * s.cfg.Interval).Unix())
		}
		if onBatch != nil {
			if ingestErr = onBatch(); ingestErr != nil {
				break
			}
		}
	}
	res.reads = <-readsDone
	res.cacheHits = s.metrics.CacheHits.Value() - hits0
	res.cacheMiss = s.metrics.CacheMisses.Value() - miss0
	if err := sink.Close(); err != nil && ingestErr == nil {
		ingestErr = err
	}
	return res, ingestErr
}

// runServeIngest is the serve_ingest workload.
func runServeIngest(o options, prov *provenance) (*report, error) {
	s, setups, err := setupServe(o, true)
	if err != nil {
		return nil, err
	}
	defer s.close()
	rep := newReport()
	ctx := context.Background()

	settle()
	res, err := ingest(ctx, s, o.seed, time.Duration(o.seconds*float64(time.Second)), o.size.IngestRate, nil, nil)
	if err != nil {
		return nil, err
	}
	peak := peakRSSMB()
	reads := summarize(res.reads)
	for _, t := range res.reads {
		rep.op(t.ok)
	}
	for range res.lags {
		rep.op(true) // each published batch
	}

	// Outside the timed phase: the published figures must equal a cold
	// render of the final store.
	if err := checkServedFigures(rep, s); err != nil {
		return nil, err
	}
	disk, err := dirBytes(s.dir)
	if err != nil {
		return nil, err
	}
	samples := s.samples + res.ingested
	prov.LatenessP99Ms = quantile(reads.lateness, 0.99)
	rep.set("setup_s", median(setups), "s")
	rep.set("latency_p50_ms", reads.p50, "ms")
	rep.set("latency_p99_ms", segmentedP99(res.reads), "ms")
	rep.set("throughput_per_s", float64(res.ingested)/res.busy.Seconds(), "1/s")
	rep.set("peak_rss_mb", peak, "MB")
	rep.set("disk_bytes_per_sample", float64(disk)/float64(samples), "B")
	sort.Float64s(res.lags)
	rep.note("serve_ingest: %d reads at %.0f req/s, p99 of the whole phase %.2f ms, cache hit ratio %.4f of %d lookups; %d batches, %d samples ingested in %v busy; publish_lag_ms median %.2f (all: %.1f)",
		reads.n, o.size.IngestRate, reads.p99, ratio(res.cacheHits, res.cacheHits+res.cacheMiss), res.cacheHits+res.cacheMiss,
		len(res.lags), res.ingested, res.busy.Round(time.Millisecond), median(res.lags), res.lags)
	return rep, nil
}

// checkServedFigures compares the figure bodies the engine serves with
// a cold scan of the store as it now stands.
func checkServedFigures(rep *report, s *served) error {
	store, err := results.Open(s.dir)
	if err != nil {
		return err
	}
	cold, _, err := core.ScanStore(context.Background(), store, s.w.Index, store.Meta().Start, binWidth, runtime.GOMAXPROCS(0), nil)
	if err != nil {
		return err
	}
	want, err := servedFigures(cold)
	if err != nil {
		return err
	}
	h := s.eng.Handler()
	for _, fig := range []string{"4", "5", "6", "7"} {
		code, got := get(h, "/api/v1/figures/"+fig)
		var err error
		if code != http.StatusOK {
			err = fmt.Errorf("served %d", code)
		}
		checkBody(rep, "figure "+fig, got, want[fig], err)
	}
	return nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
