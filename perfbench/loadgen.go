package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// timing is one open-loop request.
type timing struct {
	due, start, end time.Time
	// idle reports that a worker was free when the request fell due, so
	// start-due is the generator's own lateness, not queueing.
	idle bool
	ok   bool
}

// latency is measured from when the request was due, so a stall also
// counts against every request queued behind it.
func (t timing) latency() time.Duration { return t.end.Sub(t.due) }

// openLoop issues n requests on a fixed schedule of rate per second,
// whether or not earlier ones have finished, with at most workers in
// flight; do(i) performs request i and reports whether it succeeded.
// Each worker takes the next request in schedule order and sleeps until
// it is due; a request that falls due while every worker is busy starts
// late, and that wait is part of its latency. There is no dispatcher
// goroutine to compete with the workers for a processor.
func openLoop(n int, rate float64, workers int, do func(i int) bool) []timing {
	ts := make([]timing, n)
	period := float64(time.Second) / rate
	t0 := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				t := &ts[i]
				t.due = t0.Add(time.Duration(float64(i) * period))
				if d := time.Until(t.due); d > 0 {
					t.idle = true
					time.Sleep(d)
				}
				t.start = time.Now()
				t.ok = do(i)
				t.end = time.Now()
			}
		}()
	}
	wg.Wait()
	return ts
}

// loadStats summarizes one open-loop run.
type loadStats struct {
	n, failed int
	p50, p99  float64 // latency from due time, ms
	// lateness is start-due, in ms, of the requests a worker was free
	// for: how late the generator itself ran.
	lateness []float64
	// lastWaitMs is how long the last request waited to start: it grows
	// with the run when requests arrive faster than they finish.
	lastWaitMs float64
}

func summarize(ts []timing) loadStats {
	s := loadStats{n: len(ts)}
	lat := make([]float64, 0, len(ts))
	for _, t := range ts {
		if !t.ok {
			s.failed++
			// A failed request misses any latency limit.
			lat = append(lat, failedLatencyMs)
		} else {
			lat = append(lat, ms(t.latency()))
		}
		if t.idle {
			s.lateness = append(s.lateness, ms(t.start.Sub(t.due)))
		}
	}
	if len(ts) > 0 {
		last := ts[len(ts)-1]
		s.lastWaitMs = ms(last.start.Sub(last.due))
	}
	s.p50, s.p99 = quantile(lat, 0.5), quantile(lat, 0.99)
	return s
}

// segments is how many consecutive parts segmentedP99 splits a phase into.
const segments = 5

// segmentedP99 is the median, over segments consecutive equal parts of
// the schedule, of each part's p99 latency in ms. One stall of the
// shared host lands in one part, so it moves this figure by little,
// where it would move the p99 of the whole phase by the stall's length.
func segmentedP99(ts []timing) float64 {
	var p99s []float64
	for k := 0; k < segments; k++ {
		part := ts[k*len(ts)/segments : (k+1)*len(ts)/segments]
		if len(part) > 0 {
			p99s = append(p99s, summarize(part).p99)
		}
	}
	return median(p99s)
}

// failedLatencyMs stands in for a failed request's latency: finite, so
// it survives JSON, and far past any limit.
const failedLatencyMs = 1e9

// latencyLimitMs is the p99 a rate must meet to count toward max qps.
const latencyLimitMs = 50

// rung is one rate of the ladder and each run made at it.
type rung struct {
	rate float64
	runs []loadStats
}

// p99 is the median of the rung's runs' p99s: a run spoiled by a stall
// of the shared host counts once, not in proportion to the requests it
// delayed.
func (r *rung) p99() float64 {
	var xs []float64
	for _, st := range r.runs {
		xs = append(xs, st.p99)
	}
	return median(xs)
}

// pass reports whether the rung meets the latency limit without a
// growing backlog: no failures, and in the median run the last request
// waited no longer than the limit to start.
func (r *rung) pass() bool {
	var waits []float64
	for _, st := range r.runs {
		if st.failed > 0 {
			return false
		}
		waits = append(waits, st.lastWaitMs)
	}
	return r.p99() <= latencyLimitMs && median(waits) <= latencyLimitMs
}

// ladder finds max qps: the highest rate whose p99 stays within
// latencyLimitMs without a growing backlog. The first rung is at start.
// The ladder moves in ×√2 steps of stepDur, up while every rung passes
// and down while the lowest fails; once two neighbouring rungs bracket
// the limit it spends the rest of the budget re-running them. The answer
// interpolates the rate at which p99 crosses the limit between the
// bracketing rungs on log-log axes, so a noisy run moves it by a
// fraction of a rung rather than a whole one. step runs n requests at a
// rate.
func ladder(start float64, stepDur, budget time.Duration, step func(rate float64, n int) []timing) (float64, []*rung) {
	deadline := time.Now().Add(budget)
	run := func(r *rung) {
		n := int(r.rate * stepDur.Seconds())
		if n < 1 {
			n = 1
		}
		r.runs = append(r.runs, summarize(step(r.rate, n)))
	}
	rungs := []*rung{{rate: start}} // ascending rate
	run(rungs[0])
	// firstFail is the index of the lowest failing rung, len(rungs) if none.
	firstFail := func() int {
		for i, r := range rungs {
			if !r.pass() {
				return i
			}
		}
		return len(rungs)
	}
	for k := 0; time.Until(deadline) > stepDur/2; k++ {
		switch f := firstFail(); {
		case f == len(rungs):
			r := &rung{rate: rungs[f-1].rate * math.Sqrt2}
			run(r)
			rungs = append(rungs, r)
		case f == 0:
			r := &rung{rate: rungs[0].rate / math.Sqrt2}
			run(r)
			rungs = append([]*rung{r}, rungs...)
		case k%2 == 0:
			run(rungs[f])
		default:
			run(rungs[f-1])
		}
	}
	f := firstFail()
	if f == len(rungs) {
		// Nothing failed within the budget: the top rung is a lower bound.
		return rungs[f-1].rate, rungs
	}
	hi := rungs[f]
	pHi := hi.p99()
	if f == 0 {
		// No rung passed: scale the lowest rate down to the limit.
		return hi.rate * math.Min(1, latencyLimitMs/pHi), rungs
	}
	lo := rungs[f-1]
	pLo := lo.p99()
	frac := 1.0
	if pHi > pLo {
		frac = math.Log(latencyLimitMs/pLo) / math.Log(pHi/pLo)
	}
	frac = math.Max(0, math.Min(1, frac))
	return lo.rate * math.Pow(hi.rate/lo.rate, frac), rungs
}
