package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"quepa/internal/netsim"
	"quepa/internal/server"
	"quepa/internal/telemetry"
)

const searchQuery = `SELECT * FROM inventory WHERE seq < 2`

// TestSearchExplainProfile checks the full EXPLAIN artifact on a /search
// response: identity, the augmentation trace, and the totals — and that
// /debug/explain derives the same profile from the kept trace.
func TestSearchExplainProfile(t *testing.T) {
	s := newTestServer(t)
	withKeepEverythingTracer(t)

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

	// The kept trace of the same request derives the same profile in
	// /debug/explain.
	code, dbg := do(t, s.Handler(), "GET", "/debug/explain")
	if code != http.StatusOK {
		t.Fatalf("debug status = %d", code)
	}
	profiles, _ := dbg["profiles"].([]any)
	if len(profiles) != 1 {
		t.Fatalf("/debug/explain = %v", dbg)
	}
	if sampling, _ := dbg["sampling"].(map[string]any); sampling["kept"].(float64) < 1 {
		t.Errorf("sampling = %v", dbg["sampling"])
	}
	kept := profiles[0].(map[string]any)
	// The response's wall time ran to the moment it was derived; the kept
	// root's runs to its end. Every span below had ended in both.
	delete(p, "wall_ms")
	delete(kept, "wall_ms")
	if got, want := mustJSON(t, kept), mustJSON(t, p); got != want {
		t.Errorf("/debug/explain profile differs from the response's:\n got  %s\n want %s", got, want)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
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
	withKeepEverythingTracer(t)
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

// TestExplainSampling: the tracer's keep policy samples what /debug/explain
// profiles. With the probabilistic sample off and a slow threshold no search
// reaches, a fast clean search leaves no profile, while a degraded one is
// kept for its flag — and its profile never leaks into a response that did
// not ask with explain=1.
func TestExplainSampling(t *testing.T) {
	built := smallWorkload(t)
	cat, err := built.Poly.Database("catalogue")
	if err != nil {
		t.Fatal(err)
	}
	built.Poly.Deregister("catalogue")
	// The catalogue fails only inside its down window: requests 2 onward.
	if err := built.Poly.Register(netsim.NewChaos(cat, netsim.FaultPlan{Down: []netsim.Window{{From: 2}}}, nil)); err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, server.Config{Workload: built, Slow: time.Hour})
	tracer := withKeepEverythingTracer(t)
	tracer.SetSlowThreshold(time.Hour)

	profiles := func() []any {
		_, dbg := do(t, s.Handler(), "GET", "/debug/explain?route=/search")
		p, _ := dbg["profiles"].([]any)
		return p
	}
	for i, q := range []string{`SELECT * FROM inventory WHERE seq < 1`, `SELECT * FROM inventory WHERE seq < 2`} {
		code, body := do(t, s.Handler(), "GET", "/search?db=transactions&level=1&q="+url.QueryEscape(q))
		if code != http.StatusOK {
			t.Fatalf("search %d = %d %v", i, code, body)
		}
		if _, ok := body["explain"]; ok {
			t.Errorf("search %d: a profile leaked into a response without explain=1", i)
		}
		_, degraded := body["degraded"]
		if want := i == 1; degraded != want {
			t.Fatalf("search %d degraded = %v, want %v (fixture broken)", i, degraded, want)
		}
		if got, want := len(profiles()), i; got != want {
			t.Errorf("after search %d: %d profiles, want %d", i, got, want)
		}
	}
}

// TestSearchExplainTelemetryOff: with the kill switch off there is no span
// tree, so explain=1 returns no explain section and the request still works.
func TestSearchExplainTelemetryOff(t *testing.T) {
	s := newTestServer(t)
	prev := telemetry.SetEnabled(false)
	defer telemetry.SetEnabled(prev)
	code, body := do(t, s.Handler(), "GET", "/search?db=transactions&level=1&explain=1&q="+url.QueryEscape(searchQuery))
	if code != http.StatusOK {
		t.Fatalf("status = %d: %v", code, body)
	}
	if _, ok := body["explain"]; ok {
		t.Errorf("explain section with telemetry off: %v", body["explain"])
	}
	if objs, _ := body["augmented"].([]any); len(objs) == 0 {
		t.Errorf("answer lost with telemetry off: %v", body)
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

// TestStatsIsConfigAndBuild: /stats reports the one configuration every
// search runs and how the binary was built, and nothing else. Every number
// the server keeps is a series on /metrics.
func TestStatsIsConfigAndBuild(t *testing.T) {
	s := newTestServer(t)
	body := stats(t, s)
	if len(body) != 2 {
		t.Errorf("stats keys = %v, want exactly config and build", body)
	}
	if cfg := body["config"]; cfg != "OUTER-BATCH(batch=64,threads=8,cache=0)" {
		t.Errorf("config = %v", cfg)
	}
	build, ok := body["build"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing build section: %v", body)
	}
	if goVer, _ := build["go"].(string); !strings.HasPrefix(goVer, "go") {
		t.Errorf("build.go = %v", build["go"])
	}
}

func TestBuildVersionString(t *testing.T) {
	v := server.Version()
	if !strings.HasPrefix(v, "quepa-server ") || !strings.Contains(v, "go") {
		t.Errorf("buildVersion = %q", v)
	}
}
