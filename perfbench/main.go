// Command perfbench is the repository benchmark. It runs one workload
// and prints its metrics, one per line with the unit, then a last line
// holding the JSON result:
//
//	bash perfbench/run.sh --workload serve_window --seed 7 --seconds 24 --trace 0
//
// Workloads:
//
//	campaign      the shears binary at -days 30 -probes 3300 -figdir
//	serve_window  distinct [since,until) /cdf windows against serve.Engine
//	serve_ingest  15 more days replayed through results + Engine.Refresh
//	              under a dashboard read mix
//
// With --trace 0 the run reports the end-to-end metrics. With --trace 1
// it runs every workload's work once in this process with spans around
// each call into a layer's public functions, writes the spans as a
// Chrome trace, and reports the per-layer metrics. README.md says why
// each workload exists and what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// size fixes how much work a run does. Only the harness's own test
// shrinks it.
type size struct {
	Probes     int     // world probe census
	Days       int     // campaign length, and the served prefix
	TailDays   int     // serve_ingest: days replayed during the timed phase
	BaseRate   float64 // req/s at which latency is taken
	IngestRate float64 // serve_ingest: dashboard reads per second
	Setups     int     // set-ups per serve run; setup_s is their median
	CheckEvery int     // serve_window: every Nth window body is checked
}

// fullSize is the benchmark's size; the workload descriptions in
// BENCHMARK.json and README.md refer to it.
var fullSize = size{Probes: 3300, Days: 30, TailDays: 15, BaseRate: 100, IngestRate: 200, Setups: 2, CheckEvery: 20}

// options are one run's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // checkout root; all scratch output goes below it
	shears   string // shears binary
	size     size
}

// work returns (and creates) the run's scratch directory.
func (o options) work(name string) (string, error) {
	dir := filepath.Join(o.root, ".bench_build", "work", fmt.Sprintf("%s-%d-%d", name, o.seed, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's outcome: operations attempted and failed
// (a failed operation is one that errored or whose output a check
// found wrong), and the metrics.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are printed before the result line and kept out of it.
	notes []string
}

func newReport() *report { return &report{Metrics: make(map[string]metric)} }

func (r *report) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// op records one operation's outcome.
func (r *report) op(ok bool) {
	r.Attempted++
	if !ok {
		r.Failed++
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// errorRatio is failed ÷ attempted. It is printed with the metrics but
// carried in the result line as failed and attempted, since the result's
// metrics must never be 0.
func (r *report) errorRatio() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// print writes the metric table, the notes, and the result line last.
func (r *report) print(w io.Writer, prov provenance) error {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "%-34s %16.6g ratio (%d failed / %d attempted)\n", "error_ratio", r.errorRatio(), r.Failed, r.Attempted)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	p, err := json.Marshal(prov)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "provenance %s\n", p)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "campaign, serve_window or serve_ingest")
	flag.Uint64Var(&o.seed, "seed", 1, "world and input seed")
	flag.Float64Var(&o.seconds, "seconds", 24, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer sweep")
	flag.StringVar(&o.root, "root", ".", "checkout root")
	flag.StringVar(&o.shears, "shears", "", "shears binary (campaign workload and traced run)")
	flag.Parse()
	o.trace = *trace == 1
	o.size = fullSize
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options, out io.Writer) error {
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	root, err := filepath.Abs(o.root)
	if err != nil {
		return err
	}
	o.root = root
	prov := newProvenance(o)
	var rep *report
	switch {
	case o.workload != "campaign" && o.workload != "serve_window" && o.workload != "serve_ingest":
		return fmt.Errorf("unknown workload %q (want campaign, serve_window or serve_ingest)", o.workload)
	case o.trace:
		rep, err = runTraced(o, &prov)
	case o.workload == "campaign":
		rep, err = runCampaign(o)
	case o.workload == "serve_window":
		rep, err = runServeWindow(o, &prov)
	default:
		rep, err = runServeIngest(o, &prov)
	}
	if err != nil {
		return err
	}
	return rep.print(out, prov)
}

// provenance is printed with every result.
type provenance struct {
	Source     string  `json:"source"` // git SHA, or a hash of the Go sources outside a git checkout
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	// LatenessP99Ms is the p99 of (start time - due time) over the
	// open-loop requests a worker was free for: how late the generator
	// itself ran.
	LatenessP99Ms float64 `json:"generator_lateness_p99_ms"`
}

func newProvenance(o options) provenance {
	return provenance{
		Source:     sourceID(o.root),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Traced:     o.trace,
	}
}

// maxInFlight bounds concurrent requests or workers: the generator and
// the system share the host, so more would only queue inside Go.
func maxInFlight() int { return runtime.NumCPU() }
