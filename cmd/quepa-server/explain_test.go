package main

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"quepa/internal/server"
	"quepa/internal/telemetry"
)

const searchQuery = `SELECT * FROM inventory WHERE seq < 2`

// TestSearchExplainProfile checks the full EXPLAIN artifact on a /search
// response: identity, optimizer provenance (untrained fallback on a fresh
// server), the augmentation trace, and the totals.
func TestSearchExplainProfile(t *testing.T) {
	s := newTestServer(t)
	reg := telemetry.Default()
	before := reg.CounterValue("quepa_optimizer_fallback_total", telemetry.L("reason", "untrained"))

	q := url.QueryEscape(searchQuery)
	code, body := do(t, s.Handler(), "GET", "/search?db=transactions&q="+q+"&level=1&explain=1")
	if code != http.StatusOK {
		t.Fatalf("status = %d: %v", code, body)
	}
	p, ok := body["explain"].(map[string]any)
	if !ok {
		t.Fatalf("response has no explain profile: %v", body)
	}
	if p["route"] != "/search" || p["db"] != "transactions" || p["level"] != float64(1) {
		t.Errorf("profile identity = %v %v %v", p["route"], p["db"], p["level"])
	}
	if q, _ := p["query"].(string); !strings.Contains(q, "inventory") {
		t.Errorf("profile query = %q", q)
	}

	// A fresh server's optimizer is untrained: the decision must say so
	// explicitly — both in the profile and on the fallback counter.
	opt, ok := p["optimizer"].(map[string]any)
	if !ok {
		t.Fatalf("profile has no optimizer decision: %v", p)
	}
	if opt["optimizer"] != "ADAPTIVE" || opt["trained"] != false {
		t.Errorf("decision = %v", opt)
	}
	if reason, _ := opt["fallback_reason"].(string); !strings.Contains(reason, "not trained") {
		t.Errorf("fallback_reason = %v", opt["fallback_reason"])
	}
	chosen, _ := opt["chosen"].(map[string]any)
	if chosen["strategy"] != "OUTER-BATCH" {
		t.Errorf("chosen = %v", chosen)
	}
	if got := reg.CounterValue("quepa_optimizer_fallback_total", telemetry.L("reason", "untrained")); got != before+1 {
		t.Errorf("optimizer_fallback_total = %d, want %d", got, before+1)
	}

	augs, ok := p["augmentations"].([]any)
	if !ok || len(augs) == 0 {
		t.Fatalf("profile has no augmentation traces: %v", p)
	}
	a0 := augs[0].(map[string]any)
	if a0["strategy"] != "OUTER-BATCH" || a0["origins"].(float64) < 1 {
		t.Errorf("trace = %v", a0)
	}
	if a0["candidate_keys"].(float64) <= 0 || a0["index_nodes"].(float64) <= 0 {
		t.Errorf("index work missing: %v", a0)
	}
	if stores, _ := a0["stores"].([]any); len(stores) == 0 {
		t.Errorf("store fan-out missing: %v", a0)
	}
	totals, _ := p["totals"].(map[string]any)
	if totals["store_calls"].(float64) < 2 || totals["objects"].(float64) <= 0 {
		t.Errorf("totals = %v", totals)
	}

	// The profile also landed in the /debug/explain ring.
	code, dbg := do(t, s.Handler(), "GET", "/debug/explain")
	if code != http.StatusOK {
		t.Fatalf("debug status = %d", code)
	}
	profiles, _ := dbg["profiles"].([]any)
	if len(profiles) != 1 || dbg["seen"].(float64) != 1 {
		t.Errorf("/debug/explain = %v", dbg)
	}
}

// TestExplainTrainedDecision drives enough traffic through the server for
// the optimizer to train, then checks a trained decision's provenance: feature
// vector, all four trees consulted or annotated, no fallback.
func TestExplainTrainedDecision(t *testing.T) {
	s := newTestServer(t)
	q := url.QueryEscape(searchQuery)
	// The optimizer retrains itself every 256 logged runs; searchQuery has
	// two origins, so no answer comes whole from the result cache unlogged.
	for i := 0; i < 256; i++ {
		if code, _ := do(t, s.Handler(), "GET", "/search?db=transactions&q="+q+"&level=1"); code != http.StatusOK {
			t.Fatalf("warmup search failed")
		}
	}

	code, body := do(t, s.Handler(), "GET", "/search?db=transactions&q="+q+"&level=1&explain=1")
	if code != http.StatusOK {
		t.Fatalf("status = %d: %v", code, body)
	}
	opt := body["explain"].(map[string]any)["optimizer"].(map[string]any)
	if opt["trained"] != true {
		t.Fatalf("decision = %v", opt)
	}
	if _, ok := opt["fallback_reason"]; ok {
		t.Errorf("trained decision has fallback_reason: %v", opt)
	}
	names, _ := opt["feature_names"].([]any)
	features, _ := opt["features"].([]any)
	if len(names) != 5 || len(features) != 5 || names[0] != "result_size" {
		t.Errorf("features = %v %v", names, features)
	}
	// The previous run of this query signature supplied the sizes.
	if features[0].(float64) <= 0 {
		t.Errorf("result_size feature = %v, want the last observed size", features[0])
	}
	trees, _ := opt["trees"].([]any)
	if len(trees) != 4 {
		t.Fatalf("trees = %v", trees)
	}
	t1 := trees[0].(map[string]any)
	if t1["tree"] != "T1" || t1["consulted"] != true || t1["raw"] == "" {
		t.Errorf("T1 = %v", t1)
	}
}

func TestSearchExplainParamValidation(t *testing.T) {
	s := newTestServer(t)
	q := url.QueryEscape(searchQuery)
	base := "/search?db=transactions&q=" + q
	for _, tc := range []struct {
		extra string
		code  int
	}{
		{"&explain=1", http.StatusOK},
		{"&explain=true", http.StatusOK},
		{"&explain=0", http.StatusOK},
		{"&explain=false", http.StatusOK},
		{"&explain=yes", http.StatusBadRequest},
		{"&explain=", http.StatusBadRequest},
	} {
		code, body := do(t, s.Handler(), "GET", base+tc.extra)
		if code != tc.code {
			t.Errorf("%s: status = %d, want %d (%v)", tc.extra, code, tc.code, body)
		}
		wantProfile := strings.Contains(tc.extra, "=1") || strings.Contains(tc.extra, "=true")
		if _, ok := body["explain"]; ok != wantProfile && tc.code == http.StatusOK {
			t.Errorf("%s: explain presence = %v, want %v", tc.extra, ok, wantProfile)
		}
	}
}

func TestExploreStepExplain(t *testing.T) {
	s := newTestServer(t)
	q := url.QueryEscape(`SELECT * FROM sales WHERE seq < 1`)
	code, body := do(t, s.Handler(), "POST", "/explore?db=transactions&q="+q)
	if code != http.StatusOK {
		t.Fatalf("start status = %d: %v", code, body)
	}
	session := body["session"].(string)
	first := body["objects"].([]any)[0].(map[string]any)["key"].(string)

	code, body = do(t, s.Handler(), "POST",
		"/explore/step?session="+session+"&key="+url.QueryEscape(first)+"&explain=1")
	if code != http.StatusOK {
		t.Fatalf("step status = %d: %v", code, body)
	}
	p, ok := body["explain"].(map[string]any)
	if !ok {
		t.Fatalf("step response has no explain profile: %v", body)
	}
	if p["route"] != "/explore/step" {
		t.Errorf("route = %v", p["route"])
	}
	// The origin fetch lands outside the augmentation trace.
	if fetches, _ := p["fetches"].([]any); len(fetches) != 1 {
		t.Errorf("fetches = %v", p["fetches"])
	}
	if augs, _ := p["augmentations"].([]any); len(augs) != 1 {
		t.Errorf("augmentations = %v", p["augmentations"])
	}
}

func TestDebugExplainRouteFilter(t *testing.T) {
	s := newTestServer(t)
	q := url.QueryEscape(searchQuery)
	for i := 0; i < 2; i++ {
		if code, _ := do(t, s.Handler(), "GET", "/search?db=transactions&q="+q+"&explain=1"); code != http.StatusOK {
			t.Fatalf("search failed")
		}
	}
	sq := url.QueryEscape(`SELECT * FROM sales WHERE seq < 1`)
	code, body := do(t, s.Handler(), "POST", "/explore?db=transactions&q="+sq)
	if code != http.StatusOK {
		t.Fatalf("start status = %d", code)
	}
	session := body["session"].(string)
	first := body["objects"].([]any)[0].(map[string]any)["key"].(string)
	if code, _ = do(t, s.Handler(), "POST",
		"/explore/step?session="+session+"&key="+url.QueryEscape(first)+"&explain=1"); code != http.StatusOK {
		t.Fatalf("step failed")
	}

	for route, want := range map[string]int{"": 3, "/search": 2, "/explore/step": 1, "/nope": 0} {
		target := "/debug/explain"
		if route != "" {
			target += "?route=" + url.QueryEscape(route)
		}
		code, dbg := do(t, s.Handler(), "GET", target)
		if code != http.StatusOK {
			t.Fatalf("%s: status = %d", target, code)
		}
		profiles, _ := dbg["profiles"].([]any)
		if len(profiles) != want {
			t.Errorf("%s: %d profiles, want %d", target, len(profiles), want)
		}
	}
}

// TestExplainSampling exercises -explain-sample: with K=2 every second
// request is profiled into the ring even without explain=1.
func TestExplainSampling(t *testing.T) {
	s := mustNew(t, server.Config{Workload: smallWorkload(t), ExplainSample: 2})
	q := url.QueryEscape(searchQuery)
	for i := 0; i < 4; i++ {
		code, body := do(t, s.Handler(), "GET", "/search?db=transactions&q="+q)
		if code != http.StatusOK {
			t.Fatalf("search failed")
		}
		if _, ok := body["explain"]; ok {
			t.Error("sampled profile leaked into the response body")
		}
	}
	if _, dbg := do(t, s.Handler(), "GET", "/debug/explain"); dbg["seen"] != float64(2) {
		t.Errorf("sampled profiles = %v, want 2 of 4", dbg["seen"])
	}
}

// TestExplainSamplingCountsExplainRequests: explicit explain=1 requests
// advance the sampler too, so -explain-sample=K means every K-th request of
// any kind — not every K-th non-explain request.
func TestExplainSamplingCountsExplainRequests(t *testing.T) {
	s := mustNew(t, server.Config{Workload: smallWorkload(t), ExplainSample: 2})
	q := url.QueryEscape(searchQuery)
	for i := 0; i < 4; i++ {
		target := "/search?db=transactions&q=" + q
		if i%2 == 1 {
			target += "&explain=1"
		}
		if code, _ := do(t, s.Handler(), "GET", target); code != http.StatusOK {
			t.Fatalf("search %d failed", i)
		}
	}
	// Requests 2 and 4 are both explain=1 AND the sampled ones; the plain
	// requests 1 and 3 fall between the sampling points. If explain requests
	// skipped the counter, request 3 would be sampled and Seen would be 3.
	if _, dbg := do(t, s.Handler(), "GET", "/debug/explain"); dbg["seen"] != float64(2) {
		t.Errorf("profiles seen = %v, want 2 of 4", dbg["seen"])
	}
}

// TestHandleTracesFilters is the table-driven coverage of the ?route= and
// ?min_ms= filters, including their rejection paths.
func TestHandleTracesFilters(t *testing.T) {
	s := newTestServer(t)
	// Route requests through the instrumented mux with a zero slow threshold
	// so every root span lands in the trace ring.
	tracer := telemetry.DefaultTracer()
	prevSlow := tracer.SlowThreshold()
	tracer.SetSlowThreshold(0)
	defer tracer.SetSlowThreshold(prevSlow)
	tracer.Reset()
	defer tracer.Reset()

	mux := s.Handler()
	q := url.QueryEscape(searchQuery)
	for _, target := range []string{"/databases", "/search?db=transactions&q=" + q} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s = %d", target, rec.Code)
		}
	}

	tests := []struct {
		name   string
		target string
		code   int
		want   int // trace count; -1 = don't check
	}{
		{"no filters", "/debug/traces", http.StatusOK, 2},
		{"route match", "/debug/traces?route=/search", http.StatusOK, 1},
		{"route span-name match", "/debug/traces?route=" + url.QueryEscape("http /search"), http.StatusOK, 1},
		{"route miss", "/debug/traces?route=/ghost", http.StatusOK, 0},
		{"min_ms zero", "/debug/traces?min_ms=0", http.StatusOK, 2},
		{"min_ms filters all", "/debug/traces?min_ms=100000", http.StatusOK, 0},
		{"combined", "/debug/traces?route=/search&min_ms=100000", http.StatusOK, 0},
		{"min_ms negative", "/debug/traces?min_ms=-1", http.StatusBadRequest, -1},
		{"min_ms non-numeric", "/debug/traces?min_ms=slow", http.StatusBadRequest, -1},
		{"min_ms NaN", "/debug/traces?min_ms=NaN", http.StatusBadRequest, -1},
		{"min_ms Inf", "/debug/traces?min_ms=%2BInf", http.StatusBadRequest, -1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			code, body := do(t, s.Handler(), "GET", tc.target)
			if code != tc.code {
				t.Fatalf("status = %d, want %d (%v)", code, tc.code, body)
			}
			if tc.want < 0 {
				if msg, _ := body["error"].(string); msg == "" {
					t.Errorf("400 without JSON error body: %v", body)
				}
				return
			}
			traces, _ := body["traces"].([]any)
			if len(traces) != tc.want {
				t.Errorf("traces = %d, want %d", len(traces), tc.want)
			}
		})
	}
}

func TestStatsBuildAndOptimizerSections(t *testing.T) {
	s := newTestServer(t)
	code, body := do(t, s.Handler(), "GET", "/stats")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	build, ok := body["build"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing build section: %v", body)
	}
	if goVer, _ := build["go"].(string); !strings.HasPrefix(goVer, "go") {
		t.Errorf("build.go = %v", build["go"])
	}
	opt, ok := body["optimizer"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing optimizer section: %v", body)
	}
	if opt["name"] != "ADAPTIVE" || opt["trained"] != false {
		t.Errorf("optimizer section = %v", opt)
	}
	for _, key := range []string{"runs", "fallbacks", "retrains"} {
		if _, ok := opt[key]; !ok {
			t.Errorf("optimizer section missing %q: %v", key, opt)
		}
	}
}

func TestBuildVersionString(t *testing.T) {
	v := server.Version()
	if !strings.HasPrefix(v, "quepa-server ") || !strings.Contains(v, "go") {
		t.Errorf("buildVersion = %q", v)
	}
}
