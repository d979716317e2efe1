package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"quepa/internal/server"
	"quepa/internal/telemetry"
	"quepa/internal/workload"
)

// smallWorkload builds the 10-artist dataset most tests serve.
func smallWorkload(t testing.TB) *workload.Built {
	t.Helper()
	spec := workload.DefaultSpec()
	spec.Artists = 10
	spec.AlbumsPerArtist = 2
	built, err := workload.Build(spec, workload.Colocated())
	if err != nil {
		t.Fatal(err)
	}
	return built
}

// mustNew assembles a server through server.New, as main does, and closes
// it when the test ends.
func mustNew(t testing.TB, cfg server.Config) *server.Server {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func newTestServer(t *testing.T) *server.Server {
	t.Helper()
	return mustNew(t, server.Config{Workload: smallWorkload(t)})
}

// do serves one request through h and decodes the JSON object it answered.
func do(t testing.TB, h http.Handler, method, target string) (int, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(method, target, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var body map[string]any
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
		// Arrays decode differently; retry generically.
		body = map[string]any{}
	}
	return rec.Code, body
}

// stats returns the server's /stats body.
func stats(t testing.TB, s *server.Server) map[string]any {
	t.Helper()
	code, body := do(t, s.Handler(), "GET", "/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats = %d %v", code, body)
	}
	return body
}

func TestHandleDatabases(t *testing.T) {
	s := newTestServer(t)
	req := httptest.NewRequest("GET", "/databases", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var dbs []map[string]any
	if err := json.NewDecoder(rec.Body).Decode(&dbs); err != nil {
		t.Fatal(err)
	}
	if len(dbs) != 4 {
		t.Errorf("databases = %d", len(dbs))
	}
}

func TestHandleSearch(t *testing.T) {
	s := newTestServer(t)
	q := url.QueryEscape(`SELECT * FROM inventory WHERE seq < 2`)
	code, body := do(t, s.Handler(), "GET", "/search?db=transactions&q="+q+"&level=0")
	if code != http.StatusOK {
		t.Fatalf("status = %d: %v", code, body)
	}
	orig, ok := body["original"].([]any)
	if !ok || len(orig) != 2 {
		t.Errorf("original = %v", body["original"])
	}
	if _, ok := body["augmented"].([]any); !ok {
		t.Errorf("augmented missing: %v", body)
	}

	// Error paths.
	for _, target := range []string{
		"/search", // missing params
		"/search?db=transactions&q=" + q + "&level=-1",                                   // bad level
		"/search?db=ghost&q=" + q,                                                        // unknown database
		"/search?db=transactions&q=" + url.QueryEscape("SELECT COUNT(*) FROM inventory"), // aggregate
	} {
		if code, _ := do(t, s.Handler(), "GET", target); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", target, code)
		}
	}
}

func TestHandleObject(t *testing.T) {
	s := newTestServer(t)
	code, body := do(t, s.Handler(), "GET", "/object?key=catalogue.albums.d0")
	if code != http.StatusOK {
		t.Fatalf("status = %d: %v", code, body)
	}
	if _, ok := body["object"]; !ok {
		t.Error("object missing")
	}
	if links, ok := body["links"].([]any); !ok || len(links) == 0 {
		t.Errorf("links = %v", body["links"])
	}
	if code, _ := do(t, s.Handler(), "GET", "/object?key=bogus"); code != http.StatusBadRequest {
		t.Errorf("bad key status = %d", code)
	}
	if code, _ := do(t, s.Handler(), "GET", "/object?key=catalogue.albums.ghost"); code != http.StatusNotFound {
		t.Errorf("missing object status = %d", code)
	}
}

func TestExplorationFlow(t *testing.T) {
	s := newTestServer(t)
	q := url.QueryEscape(`SELECT * FROM sales WHERE seq < 1`)
	code, body := do(t, s.Handler(), "POST", "/explore?db=transactions&q="+q)
	if code != http.StatusOK {
		t.Fatalf("start status = %d: %v", code, body)
	}
	session, _ := body["session"].(string)
	if session == "" {
		t.Fatalf("no session id: %v", body)
	}
	objects := body["objects"].([]any)
	first := objects[0].(map[string]any)["key"].(string)

	code, body = do(t, s.Handler(), "POST", "/explore/step?session="+session+"&key="+url.QueryEscape(first))
	if code != http.StatusOK {
		t.Fatalf("step status = %d: %v", code, body)
	}
	if links, ok := body["links"].([]any); !ok || len(links) == 0 {
		t.Errorf("links = %v", body["links"])
	}

	// Stepping with a bad session or key fails.
	if code, _ := do(t, s.Handler(), "POST", "/explore/step?session=zzz&key="+url.QueryEscape(first)); code != http.StatusNotFound {
		t.Errorf("bad session status = %d", code)
	}
	if code, _ := do(t, s.Handler(), "POST", "/explore/step?session="+session+"&key=bogus"); code != http.StatusBadRequest {
		t.Errorf("bad key status = %d", code)
	}

	code, body = do(t, s.Handler(), "POST", "/explore/finish?session="+session)
	if code != http.StatusOK {
		t.Fatalf("finish status = %d: %v", code, body)
	}
	if _, ok := body["promoted"]; !ok {
		t.Errorf("finish body = %v", body)
	}
	// The session is gone afterwards.
	if code, _ := do(t, s.Handler(), "POST", "/explore/finish?session="+session); code != http.StatusNotFound {
		t.Errorf("finished session still reachable: %d", code)
	}
}

func TestHandleStats(t *testing.T) {
	s := newTestServer(t)
	code, body := do(t, s.Handler(), "GET", "/stats")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if body["databases"].(float64) != 4 {
		t.Errorf("stats = %v", body)
	}
	cfg, _ := body["config"].(string)
	if !strings.Contains(cfg, "BATCH") {
		t.Errorf("config = %q", cfg)
	}
}

func TestSearchRankingParams(t *testing.T) {
	s := newTestServer(t)
	q := url.QueryEscape(`SELECT * FROM inventory WHERE seq < 3`)
	code, body := do(t, s.Handler(), "GET", "/search?db=transactions&q="+q+"&topk=1")
	if code != http.StatusOK {
		t.Fatalf("status = %d: %v", code, body)
	}
	if aug, _ := body["augmented"].([]any); len(aug) != 1 {
		t.Errorf("topk=1 returned %d augmented", len(body["augmented"].([]any)))
	}
	code, body = do(t, s.Handler(), "GET", "/search?db=transactions&q="+q+"&minp=0.999999")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if aug, ok := body["augmented"].([]any); ok && len(aug) != 0 {
		t.Errorf("minp=0.999999 returned %d augmented", len(aug))
	}
	for _, target := range []string{
		"/search?db=transactions&q=" + q + "&minp=2",
		"/search?db=transactions&q=" + q + "&minp=x",
		"/search?db=transactions&q=" + q + "&topk=-1",
		"/search?db=transactions&q=" + q + "&topk=x",
	} {
		if code, _ := do(t, s.Handler(), "GET", target); code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", target, code)
		}
	}
}

// TestSearchParamValidation exhausts the hardened numeric-parameter parsing:
// anything non-numeric, negative, out of range, or not finite must come back
// as a 400 with a JSON error body instead of being silently defaulted.
func TestSearchParamValidation(t *testing.T) {
	s := newTestServer(t)
	q := url.QueryEscape(`SELECT * FROM inventory WHERE seq < 2`)
	base := "/search?db=transactions&q=" + q
	tests := []struct {
		name  string
		extra string
		code  int
	}{
		{"no optional params", "", http.StatusOK},
		{"explicit defaults", "&level=0&minp=0&topk=0", http.StatusOK},
		{"level numeric", "&level=1", http.StatusOK},
		{"level negative", "&level=-1", http.StatusBadRequest},
		{"level non-numeric", "&level=two", http.StatusBadRequest},
		{"level float", "&level=1.5", http.StatusBadRequest},
		{"level empty", "&level=", http.StatusBadRequest},
		{"level overflow", "&level=99999999999999999999", http.StatusBadRequest},
		{"minp boundary one", "&minp=1", http.StatusOK},
		{"minp negative", "&minp=-0.1", http.StatusBadRequest},
		{"minp above one", "&minp=1.01", http.StatusBadRequest},
		{"minp non-numeric", "&minp=high", http.StatusBadRequest},
		{"minp NaN", "&minp=NaN", http.StatusBadRequest},
		{"minp Inf", "&minp=%2BInf", http.StatusBadRequest},
		{"minp -Inf", "&minp=-Inf", http.StatusBadRequest},
		{"topk numeric", "&topk=3", http.StatusOK},
		{"topk negative", "&topk=-2", http.StatusBadRequest},
		{"topk non-numeric", "&topk=all", http.StatusBadRequest},
		{"topk float", "&topk=2.5", http.StatusBadRequest},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			code, body := do(t, s.Handler(), "GET", base+tc.extra)
			if code != tc.code {
				t.Fatalf("status = %d, want %d (%v)", code, tc.code, body)
			}
			if tc.code == http.StatusBadRequest {
				if msg, _ := body["error"].(string); msg == "" {
					t.Errorf("400 response missing JSON error body: %v", body)
				}
			}
		})
	}
}

func TestHandleMetrics(t *testing.T) {
	s := newTestServer(t)
	// Drive a search through the augmenter twice so the cache records both a
	// miss (first) and hits (second), and the strategy histogram is non-empty.
	q := url.QueryEscape(`SELECT * FROM inventory WHERE seq < 2`)
	for i := 0; i < 2; i++ {
		if code, body := do(t, s.Handler(), "GET", "/search?db=transactions&q="+q+"&level=1"); code != http.StatusOK {
			t.Fatalf("search status = %d: %v", code, body)
		}
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	out := rec.Body.String()
	for _, want := range []string{
		"# TYPE quepa_augment_duration_seconds histogram",
		`quepa_augment_duration_seconds_bucket{strategy="OUTER-BATCH",le="+Inf"}`,
		`quepa_augment_duration_seconds_count{strategy="OUTER-BATCH"}`,
		"# TYPE quepa_cache_hits_total counter",
		"quepa_cache_hits_total",
		"quepa_cache_misses_total",
		"quepa_store_op_duration_seconds_bucket",
		"quepa_index_keys",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// The cache saw traffic: hits + misses > 0 must be visible in the text.
	if hits, _ := stats(t, s)["cache_hits"].(float64); hits == 0 {
		t.Error("expected cache hits after repeated search")
	}
}

func TestHandleTraces(t *testing.T) {
	s := newTestServer(t)
	// Everything below the slow threshold: the endpoint must still answer
	// with a well-formed envelope.
	code, body := do(t, s.Handler(), "GET", "/debug/traces")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, key := range []string{"slow_threshold_ms", "roots_seen", "roots_kept", "traces"} {
		if _, ok := body[key]; !ok {
			t.Errorf("traces body missing %q: %v", key, body)
		}
	}
}

func TestStatsTelemetry(t *testing.T) {
	s := newTestServer(t)
	q := url.QueryEscape(`SELECT * FROM inventory WHERE seq < 2`)
	for i := 0; i < 2; i++ {
		if code, _ := do(t, s.Handler(), "GET", "/search?db=transactions&q="+q+"&level=1"); code != http.StatusOK {
			t.Fatalf("search failed")
		}
	}
	code, body := do(t, s.Handler(), "GET", "/stats")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	tel, ok := body["telemetry"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing telemetry section: %v", body)
	}
	ratio, ok := tel["cache_hit_ratio"].(float64)
	if !ok || ratio <= 0 {
		t.Errorf("cache_hit_ratio = %v, want > 0 after repeated search", tel["cache_hit_ratio"])
	}
	strategies, ok := tel["strategies"].(map[string]any)
	if !ok {
		t.Fatalf("telemetry missing strategies: %v", tel)
	}
	batch, ok := strategies["OUTER-BATCH"].(map[string]any)
	if !ok {
		t.Fatalf("strategies missing OUTER-BATCH: %v", strategies)
	}
	if n, _ := batch["count"].(float64); n < 2 {
		t.Errorf("OUTER-BATCH count = %v, want >= 2", batch["count"])
	}
	if _, ok := batch["p50_ms"]; !ok {
		t.Errorf("OUTER-BATCH snapshot missing p50_ms: %v", batch)
	}
	for _, key := range []string{"slow_queries_seen", "slow_queries_kept"} {
		if _, ok := tel[key]; !ok {
			t.Errorf("telemetry missing %q", key)
		}
	}
}

// TestRoutesInstrumented exercises the full mux so the instrument middleware
// (status capture, request counter, root span) runs over a real request.
func TestRoutesInstrumented(t *testing.T) {
	s := newTestServer(t)
	mux := s.Handler()

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/databases", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /databases via mux = %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/search?db=ghost&q=x", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("GET /search (bad) via mux = %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics via mux = %d", rec.Code)
	}
	out := rec.Body.String()
	for _, want := range []string{
		`quepa_http_requests_total{code="200",route="/databases"}`,
		`quepa_http_requests_total{code="400",route="/search"}`,
		`quepa_http_request_duration_seconds_bucket{route="/databases",le="+Inf"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestRoutesConcurrent serves good and bad searches from several goroutines
// at once — the per-route counter table fills on first sight of a status,
// and the optimizer logs every run and retrains once, all under contention —
// and checks no request went uncounted. Meant for -race.
func TestRoutesConcurrent(t *testing.T) {
	s := newTestServer(t)
	mux := s.Handler()
	// Two origins: never an outcome-cache hit, so every answer is logged.
	good := "/search?db=transactions&level=1&q=" + url.QueryEscape("SELECT * FROM inventory WHERE seq < 2")
	count := func(code string) uint64 {
		return telemetry.Default().CounterValue("quepa_http_requests_total",
			telemetry.L("route", "/search"), telemetry.L("code", code))
	}
	ok0, bad0 := count("200"), count("400")
	const workers, each = 8, 40 // 320 logged runs: one retrain at 256
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				for target, want := range map[string]int{good: http.StatusOK, "/search?db=ghost&q=x": http.StatusBadRequest} {
					rec := httptest.NewRecorder()
					mux.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
					if rec.Code != want {
						t.Errorf("GET %s = %d, want %d", target, rec.Code, want)
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := count("200") - ok0; got != workers*each {
		t.Errorf("counted %d 200s, served %d", got, workers*each)
	}
	if got := count("400") - bad0; got != workers*each {
		t.Errorf("counted %d 400s, served %d", got, workers*each)
	}
	opt := stats(t, s)["optimizer"].(map[string]any)
	if opt["runs"] != float64(workers*each) || opt["trained"] != true {
		t.Errorf("optimizer after %d searches = %v, want every run logged and a retrain", workers*each, opt)
	}
}
