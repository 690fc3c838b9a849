package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/results"
	"repro/internal/world"
)

// worldBuilds is how many times the campaign workload builds the world
// for setup_s: one build takes milliseconds, so a single one is noise.
// Each starts from a collected heap, as shears' build does at process
// start, so no build pays for collecting its predecessor's garbage.
const worldBuilds = 100

// shearsRun is one finished shears process.
type shearsRun struct {
	wall   time.Duration
	rssMB  float64
	out    string // dataset directory
	figdir string
}

// runShears runs the shears binary as a user would, with default flags
// at the benchmark's size, into fresh directories under dir.
func runShears(ctx context.Context, o options, dir string) (shearsRun, error) {
	r := shearsRun{out: filepath.Join(dir, "dataset"), figdir: filepath.Join(dir, "figures")}
	for _, d := range []string{r.out, r.figdir} {
		if err := os.RemoveAll(d); err != nil {
			return r, err
		}
	}
	cmd := exec.CommandContext(ctx, o.shears,
		"-out", r.out, "-figdir", r.figdir,
		"-days", strconv.Itoa(o.size.Days), "-probes", strconv.Itoa(o.size.Probes),
		"-seed", strconv.FormatUint(o.seed, 10))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr // stdout (the printed figures) is discarded
	t0 := time.Now()
	err := cmd.Run()
	r.wall = time.Since(t0)
	if err != nil {
		tail := stderr.Bytes()
		if len(tail) > 2000 {
			tail = tail[len(tail)-2000:]
		}
		return r, fmt.Errorf("shears: %w\n%s", err, tail)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return r, nil
}

// runCampaign is the campaign workload: shears end to end, as many
// times as fit in the timed phase (at least once).
func runCampaign(o options) (*report, error) {
	ctx := context.Background()
	rep := newReport()
	var setups []float64
	var w *world.World
	for i := 0; i < worldBuilds; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		if w, err = world.Build(world.Config{Seed: o.seed, Probes: o.size.Probes}); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	dir, err := o.work("campaign")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var walls, rss []float64
	var last shearsRun
	// Runs go back to back while the next one, as long as the last,
	// would end within --seconds; there is always at least one.
	start := time.Now()
	for len(walls) == 0 || time.Since(start).Seconds()+walls[len(walls)-1] <= o.seconds {
		r, err := runShears(ctx, o, dir)
		rep.op(err == nil)
		if err != nil {
			return nil, err
		}
		walls = append(walls, r.wall.Seconds())
		rss = append(rss, r.rssMB)
		last = r
	}

	// Outside the timed phase: the CSVs of the last run must equal a cold
	// scan of the samples it wrote.
	store, err := results.Open(last.out)
	if err != nil {
		return nil, err
	}
	cold, st, err := core.ScanStore(ctx, store, w.Index, store.Meta().Start, binWidth, runtime.GOMAXPROCS(0), nil)
	if err != nil {
		return nil, err
	}
	if err := checkArtifacts(rep, last.figdir, cold, campaignConfig(o.size.Days)); err != nil {
		return nil, err
	}
	disk, err := dirBytes(last.out)
	if err != nil {
		return nil, err
	}

	wall := median(walls)
	rep.set("setup_s", median(setups), "s")
	rep.set("latency_p50_ms", wall*1000, "ms")
	rep.set("latency_p99_ms", quantile(walls, 0.99)*1000, "ms")
	rep.set("throughput_per_s", float64(st.Samples)/wall, "1/s")
	rep.set("peak_rss_mb", median(rss), "MB")
	rep.set("disk_bytes_per_sample", float64(disk)/float64(st.Samples), "B")
	sort.Float64s(walls)
	rep.note("campaign: %d shears runs, wall %v s; %d samples; latency is one run's wall time, throughput samples/s",
		len(walls), walls, st.Samples)
	return rep, nil
}
