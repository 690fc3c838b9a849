package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

// benchFile is the BENCH_serve.json shape: provenance plus one entry
// per load scenario.
type benchFile struct {
	Bench      string       `json:"bench"`
	Mode       string       `json:"mode"`
	GitSHA     string       `json:"git_sha"`
	GoVersion  string       `json:"go_version"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	HostCores  int          `json:"host_cores"`
	Timestamp  string       `json:"timestamp"`
	Scenarios  []LoadResult `json:"scenarios"`
}

// TestServeLoadBench is the closed-loop load benchmark behind
// scripts/bench.sh serve: it measures sustained QPS and p50/p99/p999
// against the serving layer with the cache on and off, at steady state
// and during active ingestion, and writes BENCH_serve.json. Gated on
// SERVE_BENCH_OUT so ordinary `go test` runs skip it.
func TestServeLoadBench(t *testing.T) {
	out := os.Getenv("SERVE_BENCH_OUT")
	if out == "" {
		t.Skip("set SERVE_BENCH_OUT to run the serve load benchmark")
	}
	mode := "smoke"
	dur := 250 * time.Millisecond
	probes := 200
	if os.Getenv("SERVE_BENCH_FULL") != "" {
		mode = "full"
		dur = 2 * time.Second
		probes = 800
	}

	f := newFixture(t, probes)
	// Static prefix: most of the campaign. The rest feeds the
	// ingestion scenarios. Sealed in small blocks so the store has the
	// block count of a long-running campaign — the regime the windowed
	// scenarios are about (a handful of giant blocks would make every
	// window pure edge decode for scan and index alike).
	staticEnd := f.mem.Len() * 3 / 4
	const benchBlockRows = 512
	for off := 0; off < staticEnd; off += benchBlockRows {
		end := off + benchBlockRows
		if end > staticEnd {
			end = staticEnd
		}
		f.append(t, off, end)
	}
	e, _ := f.newEngine(t)
	ctx := context.Background()
	if err := e.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	h := e.Handler()

	// A second engine over the same store maintains the temporal
	// aggregate index, so the windowed scenarios measure index
	// composition against the per-window scan on identical data.
	tixEng, err := NewEngine(f.store, f.world.Index, Options{
		Workers: 2,
		Refresh: time.Hour,
		Metrics: NewMetrics(nil),
		TixPath: f.store.TixPath(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tixEng.Close()
	if err := tixEng.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	hTix := tixEng.Handler()

	figurePaths := []string{
		"/api/v1/figures/4", "/api/v1/figures/5",
		"/api/v1/figures/6", "/api/v1/figures/7",
	}
	quantilePaths := []string{
		"/api/v1/quantile?p=0.5", "/api/v1/quantile?p=0.99",
		"/api/v1/quantile?p=0.5&dist=min",
	}
	mixed := append(append([]string{}, figurePaths...), quantilePaths...)
	windowPaths := windowLoadPaths(f, 64)

	runOn := func(eng *Engine, hh http.Handler, name string, cacheOn bool, workers int, paths []string) LoadResult {
		eng.SetCacheBypass(!cacheOn)
		defer eng.SetCacheBypass(false)
		res := RunLoad(name, hh, LoadOptions{Duration: dur, Workers: workers, Paths: paths})
		if res.Errors > 0 {
			t.Fatalf("%s: %d request errors", name, res.Errors)
		}
		if res.Requests == 0 {
			t.Fatalf("%s: no requests completed", name)
		}
		return res
	}
	run := func(name string, cacheOn bool, paths []string) LoadResult {
		return runOn(e, h, name, cacheOn, 0, paths)
	}

	var scenarios []LoadResult
	scenarios = append(scenarios,
		run("figures_cache", true, figurePaths),
		run("figures_nocache", false, figurePaths),
		run("quantile_cache", true, quantilePaths),
		run("quantile_nocache", false, quantilePaths),
	)

	// Windowed CDF scenarios over 64 distinct windows. The cold pair
	// bypasses the cache so every request materializes its window: _scan
	// decodes every matching block, _index composes pre-merged segment
	// nodes plus edge blocks. The _cache variant repeats the same
	// distinct windows with the cache on — steady-state for a dashboard
	// cycling a fixed window set. The worker sweep shows how index
	// composition scales with client concurrency.
	scenarios = append(scenarios,
		runOn(e, h, "cdf_window_scan", false, 0, windowPaths),
		runOn(tixEng, hTix, "cdf_window_index", false, 0, windowPaths),
		runOn(tixEng, hTix, "cdf_window_index_cache", true, 0, windowPaths),
	)
	for _, workers := range []int{1, 2, 4} {
		scenarios = append(scenarios, runOn(tixEng, hTix,
			fmt.Sprintf("cdf_window_index_w%d", workers), false, workers, windowPaths))
	}

	// Ingestion scenarios: an appender feeds the store in small batches
	// while the refresher folds them, so requests race live snapshot
	// swaps and cache invalidations.
	ingest := func(name string, cacheOn bool) LoadResult {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			const batches = 16
			for b := 0; ; b = (b + 1) % batches {
				select {
				case <-stop:
					return
				default:
				}
				from := staticEnd + (f.mem.Len()-staticEnd)*b/batches
				to := staticEnd + (f.mem.Len()-staticEnd)*(b+1)/batches
				f.append(t, from, to)
				if err := e.Refresh(context.Background()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		res := run(name, cacheOn, mixed)
		close(stop)
		wg.Wait()
		return res
	}
	scenarios = append(scenarios,
		ingest("mixed_cache_ingest", true),
		ingest("mixed_nocache_ingest", false),
	)

	file := benchFile{
		Bench:      "serve",
		Mode:       mode,
		GitSHA:     envOr("SERVE_BENCH_GIT_SHA", "unknown"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		HostCores:  runtime.NumCPU(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Scenarios:  scenarios,
	}
	buf, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, s := range scenarios {
		t.Logf("%-22s %8.0f qps  p50 %7.1fµs  p99 %8.1fµs  p999 %9.1fµs  (%d reqs)",
			s.Scenario, s.QPS, s.P50us, s.P99us, s.P999us, s.Requests)
	}
}

// windowLoadPaths generates n distinct windowed /cdf targets with
// deterministic, deliberately unaligned boundaries across the campaign
// span, so nearly every window splits blocks at both edges.
func windowLoadPaths(f *fixture, n int) []string {
	rng := rand.New(rand.NewSource(97))
	start, end := f.cfg.Start, f.cfg.End
	span := int64(end.Sub(start))
	paths := make([]string, 0, n)
	for i := 0; i < n; i++ {
		a := time.Duration(rng.Int63n(span))
		b := time.Duration(rng.Int63n(span))
		if a > b {
			a, b = b, a
		}
		paths = append(paths, "/api/v1/cdf?since="+start.Add(a).Format(time.RFC3339)+
			"&until="+start.Add(b+time.Minute).Format(time.RFC3339))
	}
	return paths
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}
