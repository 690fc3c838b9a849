package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/colf"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/httpapi"
	"repro/internal/scan"
	"repro/internal/stats"
	"repro/internal/tix"
)

// Handler returns the serving layer's HTTP surface:
//
//	GET /api/v1/figures/{fig}  fig in 4|5|6|7 — paper-exact figure text
//	GET /api/v1/quantile       ?p=0.5[&dist=full|min][&continent=EU]
//	GET /api/v1/cdf            ?since=RFC3339&until=RFC3339
//
// Every endpoint answers from the published snapshot through the read
// cache; non-GET methods get a uniform 405 with Allow.
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/figures/{fig}", e.route("figures", e.handleFigure))
	mux.HandleFunc("GET /api/v1/quantile", e.route("quantile", e.handleQuantile))
	mux.HandleFunc("GET /api/v1/cdf", e.route("cdf", e.handleCDF))
	methodGate := func(w http.ResponseWriter, r *http.Request) {
		httpapi.MethodNotAllowed(w, r, http.MethodGet)
	}
	mux.HandleFunc("/api/v1/figures/{fig}", methodGate)
	mux.HandleFunc("/api/v1/quantile", methodGate)
	mux.HandleFunc("/api/v1/cdf", methodGate)
	return mux
}

// route wraps a handler with the per-route request instruments.
func (e *Engine) route(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		m := e.opt.Metrics.nilSafe()
		t0 := time.Now()
		h(w, r)
		m.Requests.With(name).Inc()
		m.RequestSeconds.With(name).Observe(time.Since(t0).Seconds())
	}
}

// view loads the published snapshot, answering 503 (and returning nil)
// before the first publish.
func (e *Engine) view(w http.ResponseWriter) *snapshotView {
	v := e.cur.Load()
	if v == nil {
		httpapi.Error(w, http.StatusServiceUnavailable, "no snapshot published yet")
	}
	return v
}

// serveCached runs key through the read cache and writes the result,
// handling conditional requests (If-None-Match against the snapshot
// ETag) and the hit/coalesced/stale accounting.
func (e *Engine) serveCached(w http.ResponseWriter, r *http.Request, key string, fill func() (*response, error)) {
	m := e.opt.Metrics.nilSafe()
	var (
		resp        *response
		err         error
		hit, waited bool
	)
	if e.bypassCache.Load() {
		resp, err = fill()
	} else {
		resp, err, hit, waited = e.cache.do(key, fill)
	}
	switch {
	case hit:
		m.CacheHits.Inc()
	case waited:
		m.Coalesced.Inc()
	default:
		m.CacheMisses.Inc()
	}
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			httpapi.Error(w, http.StatusGatewayTimeout, "window materialization exceeded the fill deadline")
			return
		}
		httpapi.Error(w, http.StatusInternalServerError, err.Error())
		return
	}
	if e.lag.Load() > 0 {
		m.StaleServed.Inc()
	}
	if resp.etag != "" {
		w.Header().Set("Etag", resp.etag)
		if r.Header.Get("If-None-Match") == resp.etag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	w.Header().Set("Content-Type", resp.contentType)
	w.WriteHeader(resp.status)
	w.Write(resp.body)
}

// jsonResponse marshals v into a cacheable response stamped with the
// snapshot's ETag.
func jsonResponse(v any, fingerprint string) (*response, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return &response{
		status:      http.StatusOK,
		contentType: "application/json",
		etag:        etagFor(fingerprint),
		body:        append(body, '\n'),
	}, nil
}

func (e *Engine) handleFigure(w http.ResponseWriter, r *http.Request) {
	v := e.view(w)
	if v == nil {
		return
	}
	fig := r.PathValue("fig")
	resp, ok := v.figures[fig]
	if !ok {
		httpapi.Errorf(w, http.StatusNotFound, "unknown figure %q (serving 4, 5, 6, 7)", fig)
		return
	}
	// The payload was rendered at publish time; the fill is a pointer
	// hand-off, never a scan.
	key := "figures/" + fig + "@" + v.fingerprint
	e.serveCached(w, r, key, func() (*response, error) { return resp, nil })
}

// quantileDTO is one continent's answer on /api/v1/quantile.
type quantileDTO struct {
	Continent string  `json:"continent"`
	Code      string  `json:"code"`
	Samples   int     `json:"samples"`
	Value     float64 `json:"value_ms"`
}

// quantileBody is the /api/v1/quantile response shape. Since/Until
// echo back only on windowed queries.
type quantileBody struct {
	Snapshot   string        `json:"snapshot"`
	Dist       string        `json:"dist"`
	P          float64       `json:"p"`
	Since      string        `json:"since,omitempty"`
	Until      string        `json:"until,omitempty"`
	Continents []quantileDTO `json:"continents"`
}

func (e *Engine) handleQuantile(w http.ResponseWriter, r *http.Request) {
	v := e.view(w)
	if v == nil {
		return
	}
	q := r.URL.Query()
	p, err := strconv.ParseFloat(q.Get("p"), 64)
	if err != nil || p < 0 || p > 1 {
		httpapi.Errorf(w, http.StatusBadRequest, "p must be a number in [0, 1], got %q", q.Get("p"))
		return
	}
	distName := q.Get("dist")
	if distName == "" {
		distName = "full"
	}
	since, until, ok := e.parseWindow(w, q)
	if !ok {
		return
	}
	windowed := !since.IsZero() || !until.IsZero()
	var rep *core.CDFReport
	switch distName {
	case "full":
		rep = v.rep.FullDist
	case "min":
		if windowed {
			// The min-RTT distribution is a whole-campaign per-probe
			// reduction; a time slice of it has no pre-aggregated form.
			httpapi.Error(w, http.StatusBadRequest, "windowed quantiles serve dist=full only")
			return
		}
		rep = v.rep.MinRTT
	default:
		httpapi.Errorf(w, http.StatusBadRequest, "dist must be full or min, got %q", distName)
		return
	}
	only := geo.ContinentUnknown
	if s := q.Get("continent"); s != "" {
		ct, err := geo.ParseContinent(s)
		if err != nil {
			httpapi.Error(w, http.StatusBadRequest, err.Error())
			return
		}
		only = ct
	}
	render := func(rep *core.CDFReport) (*response, error) {
		body := quantileBody{Snapshot: v.fingerprint, Dist: distName, P: p}
		if !since.IsZero() {
			body.Since = since.Format(time.RFC3339)
		}
		if !until.IsZero() {
			body.Until = until.Format(time.RFC3339)
		}
		for _, ct := range rep.Continents() {
			if only != geo.ContinentUnknown && ct != only {
				continue
			}
			d, _ := rep.Dist(ct)
			val, err := rep.Quantile(ct, p)
			if err != nil {
				return nil, err
			}
			body.Continents = append(body.Continents, quantileDTO{
				Continent: ct.String(), Code: ct.Code(), Samples: d.N(), Value: val,
			})
		}
		return jsonResponse(body, v.fingerprint)
	}
	if windowed {
		pred := &colf.Predicate{Since: since, Until: until}
		key := fmt.Sprintf("quantile?dist=%s&p=%.17g&continent=%v&%s@%s", distName, p, only, pred.Key(), v.fingerprint)
		ctx, cancel := e.fillContext(r)
		defer cancel()
		e.serveCached(w, r, key, func() (*response, error) {
			t0 := time.Now()
			wrep, err := e.windowReport(ctx, v, pred)
			if err != nil {
				return nil, err
			}
			t1 := e.observeFill("compose", t0)
			resp, err := render(wrep)
			e.observeFill("encode", t1)
			return resp, err
		})
		return
	}
	key := fmt.Sprintf("quantile?dist=%s&p=%.17g&continent=%v@%s", distName, p, only, v.fingerprint)
	e.serveCached(w, r, key, func() (*response, error) {
		// Post-render, every report distribution is materialized and
		// sorted, so these rank queries are read-only — no scan, no
		// mutation, safe under concurrent readers.
		return render(rep)
	})
}

// cdfDTO is one continent's curve on /api/v1/cdf.
type cdfDTO struct {
	Continent string           `json:"continent"`
	Code      string           `json:"code"`
	Samples   int              `json:"samples"`
	Curve     []stats.CDFPoint `json:"curve"`
}

// cdfBody is the /api/v1/cdf response shape. The window bounds echo
// back as RFC 3339 strings, absent when that side was open.
type cdfBody struct {
	Snapshot   string   `json:"snapshot"`
	Since      string   `json:"since,omitempty"`
	Until      string   `json:"until,omitempty"`
	Continents []cdfDTO `json:"continents"`
}

// parseWindowTime accepts RFC 3339 timestamps.
func parseWindowTime(s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	return time.Parse(time.RFC3339, s)
}

// parseWindow extracts and validates the since/until query params,
// answering 400 itself (ok=false) on bad input.
func (e *Engine) parseWindow(w http.ResponseWriter, q url.Values) (since, until time.Time, ok bool) {
	since, err := parseWindowTime(q.Get("since"))
	if err != nil {
		httpapi.Errorf(w, http.StatusBadRequest, "since: %v", err)
		return since, until, false
	}
	until, err = parseWindowTime(q.Get("until"))
	if err != nil {
		httpapi.Errorf(w, http.StatusBadRequest, "until: %v", err)
		return since, until, false
	}
	if !since.IsZero() && !until.IsZero() && !since.Before(until) {
		httpapi.Error(w, http.StatusBadRequest, "since must precede until")
		return since, until, false
	}
	return since, until, true
}

// fillContext builds the context a cache fill runs under: decoupled
// from the request's cancellation (the leader aborting must not poison
// coalesced waiters) but bounded by the hard fill deadline, so a
// runaway materialization answers 504 instead of scanning forever.
func (e *Engine) fillContext(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.WithoutCancel(r.Context()), e.opt.FillTimeout)
}

func (e *Engine) handleCDF(w http.ResponseWriter, r *http.Request) {
	v := e.view(w)
	if v == nil {
		return
	}
	since, until, ok := e.parseWindow(w, r.URL.Query())
	if !ok {
		return
	}
	pred := &colf.Predicate{Since: since, Until: until}
	key := "cdf?" + pred.Key() + "@" + v.fingerprint
	ctx, cancel := e.fillContext(r)
	defer cancel()
	e.serveCached(w, r, key, func() (*response, error) {
		t0 := time.Now()
		cts, err := e.windowCurves(ctx, v, pred)
		if err != nil {
			return nil, err
		}
		t1 := e.observeFill("compose", t0)
		body := cdfBody{Snapshot: v.fingerprint, Continents: cts}
		if !since.IsZero() {
			body.Since = since.Format(time.RFC3339)
		}
		if !until.IsZero() {
			body.Until = until.Format(time.RFC3339)
		}
		// ~40 bytes per curve point sizes the body in one allocation.
		size := 256
		for _, c := range cts {
			size += 40 * len(c.Curve)
		}
		buf := appendCDFBody(make([]byte, 0, size), &body)
		resp := &response{
			status:      http.StatusOK,
			contentType: "application/json",
			etag:        etagFor(v.fingerprint),
			body:        append(buf, '\n'),
		}
		e.observeFill("encode", t1)
		return resp, nil
	})
}

// observeFill records one windowed-fill phase that began at t0 and
// returns the time it ended, where the next phase begins.
func (e *Engine) observeFill(phase string, t0 time.Time) time.Time {
	now := time.Now()
	e.opt.Metrics.nilSafe().WindowFillSeconds.With(phase).Observe(now.Sub(t0).Seconds())
	return now
}

// windowCurves materializes the /cdf rows of one [since, until) window:
// per continent with data, in canonical order, its sample count and
// CDF curve over core.DefaultGrid. Through the index it composes
// resident curve summaries (View.QueryCurves) — no slab read, no
// sample merge; the fallback scan sweeps the scanned distributions.
// Either way the rows, and so the response bytes, are identical.
func (e *Engine) windowCurves(ctx context.Context, v *snapshotView, pred *colf.Predicate) ([]cdfDTO, error) {
	res, err := e.indexQuery(ctx, v, pred, true)
	if err != nil {
		return nil, err
	}
	var out []cdfDTO
	if res != nil {
		curves := res.Curves()
		for _, ct := range geo.Continents() {
			if n := res.N[ct]; n > 0 {
				out = append(out, cdfDTO{Continent: ct.String(), Code: ct.Code(), Samples: n, Curve: curves[ct]})
			}
		}
		return out, nil
	}
	rep, err := e.windowCDF(ctx, v, pred)
	if err != nil {
		return nil, err
	}
	grid := core.DefaultGrid()
	for _, ct := range rep.Continents() {
		d, _ := rep.Dist(ct)
		curve, err := rep.Curve(ct, grid)
		if err != nil {
			return nil, err
		}
		out = append(out, cdfDTO{Continent: ct.String(), Code: ct.Code(), Samples: d.N(), Curve: curve})
	}
	return out, nil
}

// windowReport materializes one [since, until) window's distributions
// for the windowed /quantile. The fast path composes the published
// temporal index view: O(log n) pre-merged segment nodes plus a batch
// decode of only the boundary blocks, yielding the same sample
// multiset a scan would — so every rank query downstream, and
// therefore the response bytes, are identical either way.
func (e *Engine) windowReport(ctx context.Context, v *snapshotView, pred *colf.Predicate) (*core.CDFReport, error) {
	res, err := e.indexQuery(ctx, v, pred, false)
	if err != nil {
		return nil, err
	}
	if res != nil {
		return core.CDFReportFromDists(res.ByContinent), nil
	}
	return e.windowCDF(ctx, v, pred)
}

// indexQuery composes a window through the published index view —
// curves only (View.QueryCurves) or with distributions (View.Query) —
// counting the window-index metrics. A nil result with a nil error
// tells the caller to scan instead: there is no index view (disabled,
// invalidated) or its query failed. A deadline expiry counts a fill
// timeout and propagates — the fallback scan would blow the same
// deadline.
func (e *Engine) indexQuery(ctx context.Context, v *snapshotView, pred *colf.Predicate, curves bool) (*tix.Result, error) {
	if v.tixView == nil {
		return nil, nil
	}
	query := v.tixView.Query
	if curves {
		query = v.tixView.QueryCurves
	}
	m := e.opt.Metrics.nilSafe()
	res, err := query(ctx, e.f, v.blocks, pred.Since, pred.Until, e.idx)
	if err == nil {
		m.WindowIndexQueries.Inc()
		m.WindowIndexNodes.Add(uint64(res.Stats.Nodes))
		m.WindowIndexEdgeBlocks.Add(uint64(res.Stats.EdgeBlocks))
		return res, nil
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		m.FillTimeouts.Inc()
		return nil, err
	}
	m.WindowIndexFallbacks.Inc()
	e.opt.Log.Warn("temporal index query failed; falling back to scan", "error", err)
	return nil, nil
}

// windowCDF runs the one request-path scan the serving layer allows: a
// predicate-pushdown pass over the published snapshot's block list.
// Zone maps skip blocks wholly outside the window, so the cost tracks
// the window size, not the store size. A deadline expiry counts a fill
// timeout.
func (e *Engine) windowCDF(ctx context.Context, v *snapshotView, pred *colf.Predicate) (*core.CDFReport, error) {
	e.opt.Metrics.nilSafe().RequestScans.Inc()
	var passes []*core.WindowCDFPass
	cfg := scan.Config{
		Workers:   e.opt.Workers,
		Predicate: pred,
		Metrics:   e.opt.ScanMetrics,
		Log:       e.opt.Log,
		NewPasses: func(worker int) ([]scan.Pass, error) {
			p := core.NewWindowCDFPass(e.idx)
			passes = append(passes, p)
			return []scan.Pass{p}, nil
		},
	}
	size := blockEnd(v.blocks)
	if _, err := scan.Blocks(ctx, cfg, e.f, size, v.blocks, 0, colf.HeaderSize); err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			e.opt.Metrics.nilSafe().FillTimeouts.Inc()
		}
		return nil, err
	}
	// The scan merged every worker into the worker-0 pass.
	return passes[0].Report()
}
