package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"runtime"
	rdebug "runtime/debug"
	"strconv"
	"sync"
	"time"

	"quepa/internal/augment"
	"quepa/internal/core"
	"quepa/internal/explain"
	"quepa/internal/optimizer"
	"quepa/internal/slo"
	"quepa/internal/telemetry"
)

// routes assembles the mux with every handler wrapped in the telemetry
// middleware (request counter, latency histogram, root span per request).
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /databases", s.instrument("/databases", s.handleDatabases))
	mux.HandleFunc("GET /search", s.instrument("/search", s.handleSearch))
	mux.HandleFunc("GET /object", s.instrument("/object", s.handleObject))
	mux.HandleFunc("POST /explore", s.instrument("/explore", s.handleExploreStart))
	mux.HandleFunc("POST /explore/step", s.instrument("/explore/step", s.handleExploreStep))
	mux.HandleFunc("POST /explore/finish", s.instrument("/explore/finish", s.handleExploreFinish))
	mux.HandleFunc("GET /stats", s.instrument("/stats", s.handleStats))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /debug/explain", s.handleExplain)
	return mux
}

// statusWriter captures the response code for the request metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// statusCounters are the series one (route, status) pair increments.
type statusCounters struct {
	requests *telemetry.Counter
	// errors is the per-route series the SLO engine reads: 5xx responses
	// spend error budget no matter how fast they were produced. nil below 500.
	errors *telemetry.Counter
}

func newStatusCounters(route string, code int) *statusCounters {
	c := &statusCounters{requests: telemetry.NewCounter("quepa_http_requests_total",
		"HTTP requests served by route and status",
		telemetry.L("route", route), telemetry.L("code", strconv.Itoa(code)))}
	if code >= 500 {
		c.errors = telemetry.NewCounter(slo.ErrorCounter, "HTTP 5xx responses by route",
			telemetry.L("route", route))
	}
	return c
}

// instrument wraps a handler with a per-route latency histogram, a per-route
// and per-status request counter, and a root span that lands in the
// slow-query log when the request crosses the threshold. The counters are
// resolved in the registry on first sight of a status and kept, so a series
// still appears in /metrics only once its status was served.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := telemetry.NewHistogram("quepa_http_request_duration_seconds",
		"latency of HTTP requests by route", nil, telemetry.L("route", route))
	var byCode sync.Map // status code -> *statusCounters
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, span := telemetry.StartSpan(r.Context(), "http "+route)
		span.SetAttr("url", r.URL.String())
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := telemetry.Now()
		h(sw, r.WithContext(ctx))
		hist.Since(start)
		span.SetAttr("status", strconv.Itoa(sw.code))
		span.End()
		v, ok := byCode.Load(sw.code)
		if !ok {
			v, _ = byCode.LoadOrStore(sw.code, newStatusCounters(route, sw.code))
		}
		counters := v.(*statusCounters)
		counters.requests.Inc()
		if counters.errors != nil {
			counters.errors.Inc()
		}
		// start is the zero time when telemetry is off — no clock reads then.
		if !start.IsZero() {
			if d := time.Since(start); d >= telemetry.DefaultTracer().SlowThreshold() {
				telemetry.Log(telemetry.LogWarn, "slow query",
					telemetry.F("route", route),
					telemetry.F("ms", math.Round(float64(d.Nanoseconds())/1e3)/1e3),
					telemetry.F("status", sw.code))
			}
		}
	}
}

// handleHealthz is the load-balancer probe: 200 while every store's breaker
// admits calls, 503 as soon as one is open or an SLO fast-burns. The body
// carries the per-store breaker snapshots either way, so a failing probe is
// self-explaining. Like /metrics it skips the instrument middleware — probes
// fire too often to be worth tracing.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.res.AnyOpen() {
		status, code = "degraded", http.StatusServiceUnavailable
	}
	body := map[string]any{"breakers": s.res.Snapshot()}
	body["rcache"] = map[string]any{
		"len":       s.rcache.Len(),
		"hit_ratio": s.rcache.HitRatio(),
	}
	if s.cluster != nil {
		// A burning peer degrades the probe like a burning store does: its
		// shard of every answer is missing until the breaker closes again.
		if s.cluster.AnyPeerOpen() {
			status, code = "degraded", http.StatusServiceUnavailable
		}
		body["cluster"] = s.cluster.Status(false)
	}
	if s.slo != nil {
		// Fast burn means the error budget is being spent at page-worthy
		// speed: fall out of the balancer before the budget is gone.
		if burning := s.slo.FastBurning(); len(burning) > 0 {
			status, code = "degraded", http.StatusServiceUnavailable
			body["slo_fast_burn"] = burning
		}
	}
	if s.wal != nil {
		// A sticky WAL error means new mutations are no longer being made
		// durable — the server still answers queries, but it must fall out of
		// the balancer so a healthy replica takes the writes.
		if werr := s.wal.Err(); werr != nil {
			status, code = "degraded", http.StatusServiceUnavailable
			body["wal_error"] = werr.Error()
		}
		body["durable_epoch"] = s.wal.Stats().DurableEpoch
	}
	body["status"] = status
	writeJSON(w, code, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.Default().WritePrometheus(w)
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	minMS, err := floatParam(q, "min_ms", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	route := q.Get("route")
	traceID := q.Get("trace_id")
	store := q.Get("store")
	tracer := telemetry.DefaultTracer()
	seen, kept := tracer.Stats()
	all := tracer.Snapshot()
	traces := make([]telemetry.SpanJSON, 0, len(all))
	for _, t := range all {
		// Root spans are named "http <route>"; accept both spellings so
		// ?route=/search and ?route=http+/search find the same traces.
		if route != "" && t.Name != route && t.Name != "http "+route {
			continue
		}
		if t.DurationMS < minMS {
			continue
		}
		if traceID != "" && t.TraceID != traceID {
			continue
		}
		// ?store= keeps traces that touched the named store anywhere in the
		// tree — the attribute every wire/fetch span carries.
		if store != "" && !treeHasAttr(t, "store", store) {
			continue
		}
		traces = append(traces, t)
	}
	if q.Get("format") == "json" {
		w.Header().Set("Content-Disposition", `attachment; filename="quepa-traces.json"`)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"slow_threshold_ms": float64(tracer.SlowThreshold().Nanoseconds()) / 1e6,
		"roots_seen":        seen,
		"roots_kept":        kept,
		"sampling":          tracer.SamplingStats(),
		"traces":            traces,
	})
}

// treeHasAttr reports whether any span of the tree carries attrs[key] == val.
func treeHasAttr(t telemetry.SpanJSON, key, val string) bool {
	if t.Attrs[key] == val {
		return true
	}
	for _, c := range t.Children {
		if treeHasAttr(c, key, val) {
			return true
		}
	}
	return false
}

// handleExplain serves the EXPLAIN profile ring, slowest first, optionally
// restricted to one route with ?route=/search.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"capacity": s.explainBuf.Capacity(),
		"seen":     s.explainBuf.Seen(),
		"profiles": s.explainBuf.Snapshot(r.URL.Query().Get("route")),
	})
}

// writeJSON serves the cold, free-form endpoints (/stats, /databases,
// /healthz, /debug/*) and errors; the hot routes encode through encode.go.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleDatabases(w http.ResponseWriter, r *http.Request) {
	type db struct {
		Name        string   `json:"name"`
		Kind        string   `json:"kind"`
		Collections []string `json:"collections"`
	}
	var out []db
	for _, name := range s.built.Poly.Databases() {
		store, err := s.built.Poly.Database(name)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		out = append(out, db{Name: name, Kind: store.Kind().String(), Collections: store.Collections()})
	}
	writeJSON(w, http.StatusOK, out)
}

// intParam parses a non-negative integer query parameter, returning def when
// the parameter is absent. Non-numeric or negative values are an error —
// never silently defaulted — so a typo'd request fails loudly with a 400.
func intParam(q url.Values, name string, def int) (int, error) {
	vs, ok := q[name]
	if !ok {
		return def, nil
	}
	v := vs[0]
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("parameter %s must be a non-negative integer, got %q", name, v)
	}
	return n, nil
}

// boolParam parses a boolean query parameter (1/0/true/false), returning
// false when absent. Anything else is an error, in line with intParam.
func boolParam(q url.Values, name string) (bool, error) {
	vs, ok := q[name]
	if !ok {
		return false, nil
	}
	switch vs[0] {
	case "1", "true":
		return true, nil
	case "0", "false":
		return false, nil
	}
	return false, fmt.Errorf("parameter %s must be a boolean (1/0/true/false), got %q", name, vs[0])
}

// floatParam parses a non-negative finite float parameter, returning def
// when absent.
func floatParam(q url.Values, name string, def float64) (float64, error) {
	vs, ok := q[name]
	if !ok {
		return def, nil
	}
	f, err := strconv.ParseFloat(vs[0], 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
		return 0, fmt.Errorf("parameter %s must be a non-negative number, got %q", name, vs[0])
	}
	return f, nil
}

// probParam parses a probability parameter in [0, 1], returning def when
// absent. NaN and ±Inf parse as floats but are rejected explicitly.
func probParam(q url.Values, name string, def float64) (float64, error) {
	vs, ok := q[name]
	if !ok {
		return def, nil
	}
	v := vs[0]
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) || f < 0 || f > 1 {
		return 0, fmt.Errorf("parameter %s must be a probability in [0, 1], got %q", name, v)
	}
	return f, nil
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	db, q := params.Get("db"), params.Get("q")
	if db == "" || q == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("db and q parameters are required"))
		return
	}
	level, err := intParam(params, "level", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Optional presentation controls (the paper's colors/rankings): minp
	// filters by probability, topk truncates the ranking.
	minProb, err := probParam(params, "minp", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	topK, err := intParam(params, "topk", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	explainOn, err := boolParam(params, "explain")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx := r.Context()
	var rec *explain.Recorder
	// sampled() must run unconditionally so explain=1 requests advance the
	// sampler too: -explain-sample profiles every K-th request, full stop.
	if sampled := s.sampled(); explainOn || sampled {
		ctx, rec = explain.WithRecorder(ctx, "/search")
	}
	cfg, dec := s.chooseConfig(db, q, level)
	rec.SetOptimizer(dec)
	start := time.Now()
	answer, err := s.aug.SearchWith(ctx, cfg, db, q, level)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.observe(db, q, level, cfg, answer, time.Since(start))
	ranked := answer.Rank(minProb, topK)
	rec.RankPruned(len(answer.Augmented) - len(ranked))
	buf := bodyPool.Get().(*[]byte)
	body, err := AppendSearch(*buf, answer.Original, ranked, answer.Degraded,
		s.finishProfile(rec, len(answer.Original)+len(ranked), explainOn))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	sendBody(w, buf, body)
}

// finishProfile closes a request's EXPLAIN recorder (nil when the request is
// not profiled), files the profile in the /debug/explain ring, and returns
// it for the response only when the client asked with explain=1.
func (s *Server) finishProfile(rec *explain.Recorder, objects int, attach bool) *explain.Profile {
	p := rec.Finish(objects)
	if p == nil {
		return nil
	}
	s.explainBuf.Add(p)
	if !attach {
		return nil
	}
	return p
}

// sampled implements -explain-sample: profile every K-th request even when
// the client did not ask for explain=1, feeding the /debug/explain ring.
func (s *Server) sampled() bool {
	return s.explainEvery > 0 && s.reqSeq.Add(1)%uint64(s.explainEvery) == 0
}

// chooseConfig runs the adaptive optimizer for one query and returns the
// configuration that query runs, with the decision's provenance. Its
// features — result and augmentation sizes — are only known once the query
// ran, so the previous observation of the same query signature stands in
// (zeroes on first sight). An untrained decision runs the base
// configuration. The decision travels with the request; the one piece of it
// that is shared, CACHE_SIZE, resizes the object cache here.
func (s *Server) chooseConfig(db, q string, level int) (augment.Config, explain.Decision) {
	s.optMu.Lock()
	last := s.lastSeen[queryKey{db, q, level}]
	s.optMu.Unlock()
	f := optimizer.QueryFeatures{
		ResultSize:    last.result,
		AugmentedSize: last.augmented,
		Level:         level,
		NumStores:     s.built.Poly.Size(),
	}
	cache := s.aug.Cache()
	cfg, dec := s.opt.ChooseExplained(f, cache.Capacity())
	if !dec.Trained {
		cfg = baseConfig
		cfg.CacheSize = cache.Capacity()
		dec.Chosen = explain.ChosenConfig{Strategy: cfg.Strategy.String(),
			BatchSize: cfg.BatchSize, ThreadsSize: cfg.ThreadsSize, CacheSize: cfg.CacheSize}
	} else if cfg.CacheSize != cache.Capacity() {
		cache.Resize(cfg.CacheSize)
	}
	return cfg, dec
}

// observe feeds a completed search back into the optimizer (Phase 1) under
// the configuration it ran, and remembers its observed sizes for the next
// decision on the same query. An augmentation served whole from the result
// cache is remembered but not logged: its time measures the cache, not cfg.
func (s *Server) observe(db, q string, level int, cfg augment.Config, answer *augment.Answer, elapsed time.Duration) {
	f := optimizer.QueryFeatures{
		ResultSize:    len(answer.Original),
		AugmentedSize: len(answer.Augmented),
		Level:         level,
		NumStores:     s.built.Poly.Size(),
	}
	s.remember(queryKey{db, q, level}, lastRun{result: f.ResultSize, augmented: f.AugmentedSize})
	if !answer.Memoized {
		s.opt.Log(optimizer.RunLog{Features: f, Config: cfg, Duration: elapsed})
	}
}

// remember records a signature's last observed sizes, evicting the
// first-seen signature once maxLastSeen are held.
func (s *Server) remember(sig queryKey, run lastRun) {
	s.optMu.Lock()
	defer s.optMu.Unlock()
	if _, known := s.lastSeen[sig]; !known {
		if len(s.lastSeenOrder) >= maxLastSeen {
			oldest := s.lastSeenOrder[0]
			s.lastSeenOrder = s.lastSeenOrder[1:]
			delete(s.lastSeen, oldest)
		}
		s.lastSeenOrder = append(s.lastSeenOrder, sig)
	}
	s.lastSeen[sig] = run
}

func (s *Server) handleObject(w http.ResponseWriter, r *http.Request) {
	gk, err := core.ParseGlobalKey(r.URL.Query().Get("key"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	obj, err := s.built.Poly.Fetch(r.Context(), gk)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	buf := bodyPool.Get().(*[]byte)
	sendBody(w, buf, AppendObjectLinks(*buf, obj, s.built.Index.Neighbors(gk)))
}

func (s *Server) handleExploreStart(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	sess, start, err := s.aug.Explore(r.Context(), params.Get("db"), params.Get("q"), s.tracker)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	s.nextID++
	id := strconv.Itoa(s.nextID)
	s.sessions[id] = sess
	s.mu.Unlock()
	buf := bodyPool.Get().(*[]byte)
	sendBody(w, buf, AppendExploreStart(*buf, id, start))
}

func (s *Server) session(id string) (*augment.Exploration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, fmt.Errorf("unknown session %q", id)
	}
	return sess, nil
}

func (s *Server) handleExploreStep(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	sess, err := s.session(params.Get("session"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	gk, err := core.ParseGlobalKey(params.Get("key"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	explainOn, err := boolParam(params, "explain")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx := r.Context()
	var rec *explain.Recorder
	// As in handleSearch: evaluate sampled() before the short-circuit so
	// every request advances the -explain-sample counter.
	if sampled := s.sampled(); explainOn || sampled {
		ctx, rec = explain.WithRecorder(ctx, "/explore/step")
	}
	links, err := sess.Step(ctx, gk)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	buf := bodyPool.Get().(*[]byte)
	body, err := AppendStep(*buf, links, sess.Degraded(), s.finishProfile(rec, len(links), explainOn))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	sendBody(w, buf, body)
}

func (s *Server) handleExploreFinish(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("session")
	sess, err := s.session(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	promoted := sess.Finish()
	s.mu.Lock()
	delete(s.sessions, id)
	s.mu.Unlock()
	buf := bodyPool.Get().(*[]byte)
	sendBody(w, buf, AppendExploreFinish(*buf, promoted, sess.Path()))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	hits, misses := s.aug.Cache().Stats()

	// Per-strategy query counts and latency quantiles from the telemetry
	// registry; only strategies that actually ran are listed.
	strategies := map[string]any{}
	for name, snap := range augment.StrategyStats() {
		if snap.Count == 0 {
			continue
		}
		strategies[name] = map[string]any{
			"count":  snap.Count,
			"p50_ms": roundMS(snap.P50),
			"p95_ms": roundMS(snap.P95),
			"p99_ms": roundMS(snap.P99),
		}
	}
	seen, kept := telemetry.DefaultTracer().Stats()
	reg := telemetry.Default()
	fallbacks := reg.CounterValue("quepa_optimizer_fallback_total", telemetry.L("reason", "untrained")) +
		reg.CounterValue("quepa_optimizer_fallback_total", telemetry.L("reason", "parse_strategy"))
	var durability any
	if s.wal != nil {
		durability = s.wal.Stats()
	} else {
		durability = map[string]any{"enabled": false}
	}
	var sloSection any
	if s.slo != nil {
		sloSection = map[string]any{
			"fast_burn_threshold": s.slo.FastBurnThreshold(),
			"objectives":          s.slo.Snapshot(),
		}
	} else {
		sloSection = map[string]any{"enabled": false}
	}
	var clusterSection any
	if s.cluster != nil {
		clusterSection = s.cluster.Status(true)
	} else {
		clusterSection = map[string]any{"enabled": false}
	}
	rcStats := s.rcache.Stats()
	// The base configuration, with the cache at the size the optimizer's
	// decisions have moved it to; a trained decision picks the rest per query.
	baseCfg := s.aug.Config()
	baseCfg.CacheSize = s.aug.Cache().Capacity()
	writeJSON(w, http.StatusOK, map[string]any{
		"cluster":    clusterSection,
		"slo":        sloSection,
		"durability": durability,
		"rcache": map[string]any{
			"capacity":         s.rcache.Capacity(),
			"len":              rcStats.Len,
			"hits":             rcStats.Hits,
			"misses":           rcStats.Misses,
			"hit_ratio":        s.rcache.HitRatio(),
			"epoch_mismatches": rcStats.EpochMismatches,
			"evictions":        rcStats.Evictions,
			"invalidations":    rcStats.Invalidations,
		},
		"databases":   s.built.Poly.Size(),
		"index_keys":  s.built.Index.NodeCount(),
		"index_edges": s.built.Index.EdgeCount(),
		"cache_len":   s.aug.Cache().Len(),
		"cache_hits":  hits,
		"cache_miss":  misses,
		"config":      baseCfg.String(),
		"build":       buildSection(),
		"aindex": map[string]any{
			"snapshot":        s.built.Index.SnapshotInfo(),
			"reach_snapshot":  reg.CounterValue("quepa_aindex_reach_snapshot_total"),
			"reach_fallback":  reg.CounterValue("quepa_aindex_reach_fallback_total"),
			"collector_pairs": reg.CounterValue("quepa_collector_pairs_scored_total"),
			"collector_drops": reg.CounterValue("quepa_collector_blocks_dropped_total"),
		},
		"resilience": map[string]any{
			"breakers":         s.res.Snapshot(),
			"any_open":         s.res.AnyOpen(),
			"degraded_answers": reg.CounterValue("quepa_augment_degraded_total"),
		},
		"optimizer": map[string]any{
			"name":      s.opt.Name(),
			"trained":   s.opt.Trained(),
			"runs":      s.opt.LogCount(),
			"fallbacks": fallbacks,
			"retrains":  reg.CounterValue("quepa_optimizer_retrain_total"),
		},
		"telemetry": map[string]any{
			"cache_hit_ratio":   s.aug.Cache().HitRatio(),
			"cache_evictions":   s.aug.Cache().Evictions(),
			"strategies":        strategies,
			"aindex_reach_keys": reg.CounterValue("quepa_aindex_reach_keys_total"),
			"aindex_removals":   reg.CounterValue("quepa_aindex_removals_total"),
			"aindex_promotions": reg.CounterValue("quepa_aindex_promotions_total"),
			"slow_queries_seen": seen,
			"slow_queries_kept": kept,
		},
	})
}

func roundMS(d time.Duration) float64 {
	return math.Round(float64(d.Nanoseconds())/1e3) / 1e3
}

// buildSection reports how this binary was built — Go version, module, and
// the VCS stamp when the toolchain embedded one — for /stats and -version.
func buildSection() map[string]any {
	out := map[string]any{"go": runtime.Version()}
	bi, ok := rdebug.ReadBuildInfo()
	if !ok {
		return out
	}
	out["path"] = bi.Path
	if bi.Main.Version != "" {
		out["module_version"] = bi.Main.Version
	}
	for _, setting := range bi.Settings {
		switch setting.Key {
		case "vcs.revision":
			out["revision"] = setting.Value
		case "vcs.time":
			out["vcs_time"] = setting.Value
		case "vcs.modified":
			out["modified"] = setting.Value == "true"
		}
	}
	return out
}

// Version is the one-line build stamp quepa-server -version prints.
func Version() string {
	b := buildSection()
	rev, _ := b["revision"].(string)
	if rev == "" {
		rev = "devel"
	}
	return fmt.Sprintf("quepa-server %s (%s)", rev, b["go"])
}
