package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/results"
	"repro/internal/world"
)

// tinySize runs every workload in a second or two.
var tinySize = size{Probes: 300, Days: 6, TailDays: 4, BaseRate: 40, IngestRate: 40, Setups: 1, CheckEvery: 5}

// shearsPath is the shears binary TestMain builds for the tests.
var shearsPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	shearsPath = filepath.Join(dir, "shears")
	out, err := exec.Command("go", "build", "-o", shearsPath, "repro/cmd/shears").CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "building shears: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tinyOptions returns options for a tiny run.
func tinyOptions(t *testing.T, workload string, trace bool) options {
	t.Helper()
	return options{
		workload: workload, seed: 7, seconds: 2, trace: trace,
		root: t.TempDir(), shears: shearsPath, size: tinySize,
	}
}

// benchmarkSpec is the part of BENCHMARK.json the harness must honour.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, tc := range []struct {
		workload string
		trace    bool
	}{
		{"campaign", false},
		{"serve_window", false},
		{"serve_ingest", false},
		{"serve_ingest", true},
	} {
		name := tc.workload
		if tc.trace {
			name += "/traced"
		}
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tinyOptions(t, tc.workload, tc.trace), &out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not the result: %v\n%s", err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, out.String())
			}
			want := spec.EndToEnd
			if tc.trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("result has %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("metric %s missing from the result", m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("metric %s has unit %q, want %q", m.Name, got.Unit, m.Unit)
				}
				if !printed(lines, m.Name, m.Unit) {
					t.Errorf("metric %s is not printed with unit %s", m.Name, m.Unit)
				}
				if !tc.trace && got.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
				}
			}
			if !printed(lines, "error_ratio", "ratio") {
				t.Errorf("error_ratio is not printed")
			}
		})
	}
}

// printed reports whether some table line shows name with unit.
func printed(lines []string, name, unit string) bool {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) >= 3 && f[0] == name && f[2] == unit {
			return true
		}
	}
	return false
}

func TestCorruptedCSVCountsAsFailed(t *testing.T) {
	o := tinyOptions(t, "campaign", false)
	r, err := runShears(context.Background(), o, o.root)
	if err != nil {
		t.Fatal(err)
	}
	w, err := world.Build(world.Config{Seed: o.seed, Probes: o.size.Probes})
	if err != nil {
		t.Fatal(err)
	}
	store, err := results.Open(r.out)
	if err != nil {
		t.Fatal(err)
	}
	cold, _, err := core.ScanStore(context.Background(), store, w.Index, store.Meta().Start, binWidth, runtime.GOMAXPROCS(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := campaignConfig(o.size.Days)

	rep := newReport()
	if err := checkArtifacts(rep, r.figdir, cold, cfg); err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("untouched CSVs: failed %d of %d", rep.Failed, rep.Attempted)
	}
	csv := filepath.Join(r.figdir, "figure6.csv")
	b, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 1
	if err := os.WriteFile(csv, b, 0o644); err != nil {
		t.Fatal(err)
	}
	rep = newReport()
	if err := checkArtifacts(rep, r.figdir, cold, cfg); err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 1 || rep.errorRatio() <= 0 {
		t.Errorf("one corrupted CSV: failed %d of %d, error ratio %v", rep.Failed, rep.Attempted, rep.errorRatio())
	}
}

func TestCorruptedWindowBodyCountsAsFailed(t *testing.T) {
	o := tinyOptions(t, "serve_window", false)
	s, _, err := setupServe(o, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	h := s.eng.Handler()
	var checked []checkedBody
	for _, win := range newWindowSource(o.seed, s.cfg.Start, s.cfg.End).upTo(3) {
		_, body := get(h, win.target())
		checked = append(checked, checkedBody{win.target(), append([]byte(nil), body...)})
	}
	checked[1].body[len(checked[1].body)/2] ^= 1

	rep := newReport()
	if err := checkWindows(rep, s, checked); err != nil {
		t.Fatal(err)
	}
	if rep.Attempted != 3 || rep.Failed != 1 {
		t.Errorf("one corrupted body of 3: failed %d of %d", rep.Failed, rep.Attempted)
	}
}
