package tix

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"time"

	"repro/internal/colf"
	"repro/internal/geo"
	"repro/internal/stats"
)

// View is an immutable query handle over the nodes an Index had stored
// when it was taken. Views are safe for concurrent use and for use
// concurrent with a later Extend on the parent Index.
type View struct {
	f        *os.File
	nodes    map[nodeKey]nodeRef
	frontier int
}

// QueryStats reports how a window was materialized — the observable
// difference between the index path and a cold scan.
type QueryStats struct {
	// Nodes is how many pre-merged segment nodes composed the window.
	Nodes int
	// NodeBlocks is how many sealed blocks those nodes covered — rows
	// the query never decoded.
	NodeBlocks int
	// EdgeBlocks is how many partially covered blocks were decoded and
	// row-filtered at the window boundaries.
	EdgeBlocks int
	// StrayBlocks is how many fully covered blocks below the frontier
	// were decoded singly because no stored node aligned with them (the
	// odd leaves of the decomposition).
	StrayBlocks int
	// FrontierBlocks is how many fully covered blocks past the built
	// frontier fell back to a direct decode.
	FrontierBlocks int
	// SkippedBlocks is how many blocks the window excluded outright.
	SkippedBlocks int
}

// DecodedBlocks is the total number of blocks the query had to decode.
func (q QueryStats) DecodedBlocks() int {
	return q.EdgeBlocks + q.StrayBlocks + q.FrontierBlocks
}

// Result is a materialized window: per continent, the resolved
// sample count and curve counts of every sample in [since, until) —
// and, from Query, the delivered-RTT distributions themselves — plus
// the row totals the window covered and how it was assembled.
type Result struct {
	// ByContinent holds the window's distributions; nil from
	// QueryCurves, which never materializes samples.
	ByContinent map[geo.Continent]*stats.Dist
	// N is each continent's resolved sample count (continents with
	// none are absent) — Dist.N() of the matching distribution.
	N         map[geo.Continent]int
	Rows      uint64 // rows inside the window
	Delivered uint64 // delivered rows inside the window
	Stats     QueryStats

	// curves accumulates the composed curve pre-aggregates.
	curves curveSet
}

// Curves returns the window's per-continent CDF curves over Grid(),
// composed purely from the node pre-aggregates and edge folds — no
// pass over the sample buffers. Every P value equals
// float64(samples <= x) / float64(N), the exact division Dist.CDF
// performs, so a figure rendered from these points is bit-identical to
// one swept from the composed distributions.
func (r *Result) Curves() map[geo.Continent][]stats.CDFPoint {
	out := make(map[geo.Continent][]stats.CDFPoint, len(r.N))
	for ct, n := range r.N {
		pts := make([]stats.CDFPoint, curveBins)
		var cum uint64
		for k, x := range r.curves.counts[ct] {
			cum += x
			pts[k] = stats.CDFPoint{X: float64(k + 1), P: float64(cum) / float64(n)}
		}
		out[ct] = pts
	}
	return out
}

// Samples returns the total sample count across continents — the
// delivered rows whose probes the index resolves.
func (r *Result) Samples() int {
	n := 0
	for _, cn := range r.N {
		n += cn
	}
	return n
}

// windowNanos converts the half-open [since, until) window to the nano
// bounds the row filters use; zero times mean unbounded.
func windowNanos(since, until time.Time) (int64, int64) {
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	if !since.IsZero() {
		lo = since.UnixNano()
	}
	if !until.IsZero() {
		hi = until.UnixNano()
	}
	return lo, hi
}

// Query materializes the window [since, until) over the store's sealed
// blocks: fully covered block runs compose from O(log n) pre-merged
// nodes, boundary blocks batch-decode and row-filter only their edge
// rows, and anything the index has not reached yet falls back to a
// direct decode. The result's distributions hold exactly the sample
// multiset a cold row scan of the same window would accumulate, so
// every rank query downstream answers identically.
//
// Only rank answers, N and curves are guaranteed bit-identical to a
// cold fold. Mean and StdDev sum the pieces in composition order —
// node slabs, then all decoded blocks as one set — so they can differ
// from a row-order fold in their last bits.
//
// blocks must be the same sealed block list the parent Index was
// validated and extended against (or a prefix-consistent extension of
// it — extra blocks past the frontier are served by fallback decodes).
// store is the samples file; cls resolves probes exactly as at build
// time. The context is checked once per composed piece.
func (v *View) Query(ctx context.Context, store io.ReaderAt, blocks []colf.BlockInfo, since, until time.Time, cls Continents) (*Result, error) {
	return v.compose(ctx, store, blocks, since, until, cls, true)
}

// QueryCurves composes the same window as Query, but only its curve
// counts and per-continent N: stored nodes contribute their resident
// curve summaries (no sidecar read, no slab merge) and decoded blocks
// fold through the curve-only row fold (no stats.Dist). The result's
// ByContinent is nil; N, Curves and Samples answer exactly as they
// would from Query.
func (v *View) QueryCurves(ctx context.Context, store io.ReaderAt, blocks []colf.BlockInfo, since, until time.Time, cls Continents) (*Result, error) {
	return v.compose(ctx, store, blocks, since, until, cls, false)
}

// compose is the one composition loop behind Query and QueryCurves;
// slabs selects whether node slabs are read back and merged into
// distributions.
func (v *View) compose(ctx context.Context, store io.ReaderAt, blocks []colf.BlockInfo, since, until time.Time, cls Continents, slabs bool) (*Result, error) {
	if cls == nil {
		return nil, fmt.Errorf("tix: nil continent resolver")
	}
	pred := &colf.Predicate{Since: since, Until: until}
	sinceN, untilN := windowNanos(since, until)

	res := &Result{}
	dec := colf.NewBlockDecoder()
	fold := rowFolder{cs: &res.curves, cls: cls}

	// With slabs, runs collects each node's distributions, in block
	// order, and every decoded block folds into one more distribution
	// set (fold.dists). Node states arrive as serialized sorted slabs;
	// combining happens once at the end by a tournament of linear merges
	// (stats.CombineSorted), never an O(n log n) re-sort of the window.
	// The final multiset is independent of how the window was pieced
	// together. Curve counts compose by plain integer addition into
	// res.curves either way.
	var runs map[geo.Continent][]*stats.Dist
	if slabs {
		runs = make(map[geo.Continent][]*stats.Dist)
		fold.dists = make(map[geo.Continent]*stats.Dist)
	}

	// decodeCovered handles one fully covered block with no usable
	// node: decode probe/rtt/lost and fold every row.
	decodeCovered := func(i int) error {
		blk, err := dec.DecodeCols(store, blocks[i], 0)
		if err != nil {
			return err
		}
		res.Rows += uint64(blk.Zone.Rows)
		res.Delivered += uint64(blk.Zone.Delivered)
		return fold.foldRows(blk, 0, blk.Rows())
	}

	// flushRun decomposes a run of fully covered blocks [lo, hi) into
	// the largest aligned stored nodes, decoding the stray leaves the
	// dyadic decomposition leaves at the ends.
	flushRun := func(lo, hi int) error {
		for lo < hi {
			if err := ctx.Err(); err != nil {
				return err
			}
			used := false
			for level := bits.Len(uint(hi-lo)) - 1; level >= 1; level-- {
				span := 1 << level
				if lo%span != 0 {
					continue
				}
				ref, ok := v.nodes[nodeKey{level, lo}]
				if !ok {
					continue
				}
				if slabs {
					ns, err := readNodeState(v.f, ref)
					if err != nil {
						return err
					}
					for ct, d := range ns.dists {
						runs[ct] = append(runs[ct], d)
					}
				}
				res.curves.add(ref.curves)
				res.Rows += ref.rows
				res.Delivered += ref.delivered
				res.Stats.Nodes++
				res.Stats.NodeBlocks += span
				lo += span
				used = true
				break
			}
			if used {
				continue
			}
			if lo < v.frontier {
				res.Stats.StrayBlocks++
			} else {
				res.Stats.FrontierBlocks++
			}
			if err := decodeCovered(lo); err != nil {
				return err
			}
			lo++
		}
		return nil
	}

	runStart := -1 // start of the current fully covered run, -1 if none
	for i, bi := range blocks {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		covered := false
		switch {
		case !pred.MatchZone(bi.Zone):
			res.Stats.SkippedBlocks++
		case pred.CoversZone(bi.Zone):
			covered = true
		}
		if covered {
			if runStart < 0 {
				runStart = i
			}
			continue
		}
		if runStart >= 0 {
			if err := flushRun(runStart, i); err != nil {
				return nil, err
			}
			runStart = -1
		}
		if !pred.MatchZone(bi.Zone) {
			continue
		}
		// Edge block: the window cuts through it. Decode with the time
		// column and fold only the in-window rows.
		res.Stats.EdgeBlocks++
		blk, err := dec.DecodeCols(store, bi, colf.ColTime)
		if err != nil {
			return nil, err
		}
		lo, hi, exact := blk.EdgeRows(sinceN, untilN)
		if exact {
			res.Rows += uint64(hi - lo)
			for j := lo; j < hi; j++ {
				if !blk.Lost[j] {
					res.Delivered++
				}
			}
			err = fold.foldRows(blk, lo, hi)
		} else {
			err = fold.foldEdgeRows(res, blk, sinceN, untilN)
		}
		if err != nil {
			return nil, err
		}
	}
	if runStart >= 0 {
		if err := flushRun(runStart, len(blocks)); err != nil {
			return nil, err
		}
	}

	res.N = make(map[geo.Continent]int)
	for _, ct := range geo.Continents() {
		if n := res.curves.n[ct]; n > 0 {
			res.N[ct] = int(n)
		}
	}
	if slabs {
		for ct, d := range fold.dists {
			runs[ct] = append(runs[ct], d)
		}
		res.ByContinent = make(map[geo.Continent]*stats.Dist, len(runs))
		for ct, ds := range runs {
			d, err := stats.CombineSorted(ds)
			if err != nil {
				return nil, err
			}
			res.ByContinent[ct] = d
		}
	}
	return res, nil
}

// foldEdgeRows is the slow edge path for a block whose time column is
// not monotone: every row tests against the window individually, and
// the in-window row totals count into res. The probe-run continent
// cache still applies.
func (f *rowFolder) foldEdgeRows(res *Result, blk *colf.Block, sinceN, untilN int64) error {
	for i, tn := range blk.TimeNano {
		if tn < sinceN || tn >= untilN {
			continue
		}
		res.Rows++
		if blk.Lost[i] {
			continue
		}
		res.Delivered++
		if err := f.add(blk.Probe[i], blk.RTT[i]); err != nil {
			return err
		}
	}
	return nil
}
