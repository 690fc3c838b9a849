package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/atlas"
	"repro/internal/core"
	"repro/internal/figures"
)

// The output checks run outside the timed phase. Each compared output
// is one operation in the report; a mismatch counts as failed.

// checkArtifacts compares every CSV shears wrote into figdir with the
// same CSV rendered from a cold scan of the dataset.
func checkArtifacts(rep *report, figdir string, cold *core.SuiteReport, cfg atlas.CampaignConfig) error {
	want, err := renderArtifacts(cold, cfg)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(want))
	for name := range want {
		if strings.HasSuffix(name, ".csv") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		got, err := os.ReadFile(filepath.Join(figdir, name))
		checkBody(rep, "figdir "+name, got, want[name], err)
	}
	return nil
}

// checkBody records one compared output.
func checkBody(rep *report, what string, got, want []byte, err error) {
	ok := err == nil && bytes.Equal(got, want)
	rep.op(ok)
	if !ok {
		if err != nil {
			rep.note("check failed: %s: %v", what, err)
		} else {
			rep.note("check failed: %s differs from the reference (%d vs %d bytes)", what, len(got), len(want))
		}
	}
}

// servedFigures renders the bodies serve.Engine publishes for figures
// 4-7 from a report, keyed by figure number.
func servedFigures(rep *core.SuiteReport) (map[string][]byte, error) {
	l5, err := figures.CDFLines(rep.MinRTT)
	if err != nil {
		return nil, err
	}
	l6, err := figures.CDFLines(rep.FullDist)
	if err != nil {
		return nil, err
	}
	l7, err := figures.Figure7Lines(rep.LastMile)
	if err != nil {
		return nil, err
	}
	return map[string][]byte{
		"4": joinLines(figures.Figure4Lines(rep.Proximity)),
		"5": joinLines(l5),
		"6": joinLines(l6),
		"7": joinLines(l7),
	}, nil
}

// joinLines renders lines the way serve.Engine publishes a figure body.
func joinLines(lines []string) []byte { return []byte(strings.Join(lines, "\n") + "\n") }
