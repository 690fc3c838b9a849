package tix

import (
	"math"

	"repro/internal/geo"
)

// Curve pre-aggregates. Every node stores, per continent, how many of
// its samples fall into each integer-millisecond bin of the fixed
// figure grid (1..curveBins ms — the axis core.DefaultGrid serves), so
// a window's whole CDF curve composes by integer vector addition over
// the O(log n) nodes plus the edge folds, and one prefix sum at the
// end. The per-query cost is O(log n · bins) regardless of how many
// samples the window holds — the sample buffers are only touched for
// quantiles.
//
// Bin k holds the samples v with ceil(v) = k+1 (v <= 0 clamps into bin
// 0; v past the grid lands in no bin but still counts toward N). The
// prefix sum through bin k is then exactly |{v : v <= k+1}| — the same
// integer Dist.CDF computes at grid point x = k+1 — so the final
// division float64(cum)/float64(N) reproduces the swept curve bit for
// bit.
const curveBins = 400

// Grid returns the x-axis the pre-aggregated curves cover: integer
// milliseconds 1..curveBins, identical to core.DefaultGrid.
func Grid() []float64 {
	g := make([]float64, curveBins)
	for i := range g {
		g[i] = float64(i + 1)
	}
	return g
}

// curveBin maps one sample to its increment bin, or -1 when the sample
// lies past the grid. Samples pass Dist.Add validation before they are
// bucketed, so NaN and infinities never reach here.
func curveBin(v float64) int {
	if v > curveBins {
		return -1
	}
	k := int(math.Ceil(v)) - 1
	if k < 0 {
		k = 0
	}
	return k
}

// continentSlots sizes the per-continent arrays of a curveSet, which
// index by geo.Continent directly; node decoding rejects continent
// bytes that name no continent, so every stored index fits.
const continentSlots = int(geo.SouthAmerica) + 1

// curveSet is the curve half of a node or window aggregate: per
// continent, the resolved sample count N (samples past the grid
// included) and the per-bin sample counts on the grid. counts[ct] is
// non-nil exactly when n[ct] > 0. It is all /cdf needs, so a window
// composed from curve sets alone touches no sample buffer.
type curveSet struct {
	n      [continentSlots]uint64
	counts [continentSlots][]uint64
}

// bins returns ct's count vector, creating it on first use.
func (cs *curveSet) bins(ct geo.Continent) []uint64 {
	c := cs.counts[ct]
	if c == nil {
		c = make([]uint64, curveBins)
		cs.counts[ct] = c
	}
	return c
}

// observe counts one resolved sample v of continent ct.
func (cs *curveSet) observe(ct geo.Continent, v float64) {
	cnt := cs.bins(ct)
	cs.n[ct]++
	if k := curveBin(v); k >= 0 {
		cnt[k]++
	}
}

// add folds o into cs by integer vector addition; o is left untouched
// and no slice of it is adopted, so resident summaries stay immutable.
func (cs *curveSet) add(o *curveSet) {
	for ct, oc := range o.counts {
		if oc == nil {
			continue
		}
		cs.n[ct] += o.n[ct]
		c := cs.bins(geo.Continent(ct))
		for k, x := range oc {
			c[k] += x
		}
	}
}
