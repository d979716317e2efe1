package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

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

// metric scrapes /metrics through h and returns the sample of series: a
// name with its label set as the exposition renders it, labels in key order
// and le last, e.g. `quepa_http_requests_total{code="200",route="/search"}`.
// It fails the test when the series is absent.
func metric(t testing.TB, h http.Handler, series string) float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("/metrics %s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no series %s", series)
	return 0
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
		"/search?db=transactions&q=" + q + "&level=-1",                                          // bad level
		"/search?db=ghost&q=" + q,                                                               // unknown database
		"/search?db=transactions&q=" + url.QueryEscape("SELECT COUNT(*) FROM inventory"),        // aggregate
		"/search?db=transactions&q=" + url.QueryEscape("SELECT DISTINCT artist FROM inventory"), // values, not objects
		"/search?db=discount&q=" + url.QueryEscape("EXISTS drop ghost"),                         // a boolean, not an entry
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

// startSession opens an exploration session on the given query and returns
// its id and the key of its first start object.
func startSession(t *testing.T, h http.Handler, query string) (id, first string) {
	t.Helper()
	code, body := do(t, h, "POST", "/explore?db=transactions&q="+url.QueryEscape(query))
	if code != http.StatusOK {
		t.Fatalf("start status = %d: %v", code, body)
	}
	id, _ = body["session"].(string)
	objects, _ := body["objects"].([]any)
	if id == "" || len(objects) == 0 {
		t.Fatalf("start body = %v", body)
	}
	return id, objects[0].(map[string]any)["key"].(string)
}

func TestExplorationFlow(t *testing.T) {
	s := newTestServer(t)
	session, first := startSession(t, s.Handler(), `SELECT * FROM sales WHERE seq < 1`)

	code, body := do(t, s.Handler(), "POST", "/explore/step?session="+session+"&key="+url.QueryEscape(first))
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

// TestExploreSessionConcurrentSteps sends two /explore/step calls on one
// session at once. Each is served whole, one after the other: each answers
// 200 or 400, never a torn session. Meant for -race.
func TestExploreSessionConcurrentSteps(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	for round := 0; round < 4; round++ {
		id, first := startSession(t, h, `SELECT * FROM sales WHERE seq < 1`)
		target := "/explore/step?session=" + id + "&key=" + url.QueryEscape(first)
		codes := make([]int, 2)
		var wg sync.WaitGroup
		for i := range codes {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				codes[i], _ = do(t, h, "POST", target)
			}(i)
		}
		wg.Wait()
		ok := 0
		for _, c := range codes {
			switch c {
			case http.StatusOK:
				ok++
			case http.StatusBadRequest:
			default:
				t.Errorf("concurrent step status = %d", c)
			}
		}
		if ok == 0 {
			t.Errorf("neither concurrent first step succeeded: %v", codes)
		}
	}
}

// TestExploreSessionStepRacesFinish sends a step and the finish of one
// session at once: the step either lands before the finish or is refused
// after it, and the session is gone afterwards. Meant for -race.
func TestExploreSessionStepRacesFinish(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	for round := 0; round < 4; round++ {
		id, first := startSession(t, h, `SELECT * FROM sales WHERE seq < 1`)
		var stepCode, finishCode int
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			stepCode, _ = do(t, h, "POST", "/explore/step?session="+id+"&key="+url.QueryEscape(first))
		}()
		go func() {
			defer wg.Done()
			finishCode, _ = do(t, h, "POST", "/explore/finish?session="+id)
		}()
		wg.Wait()
		if finishCode != http.StatusOK {
			t.Errorf("finish status = %d", finishCode)
		}
		if stepCode != http.StatusOK && stepCode != http.StatusBadRequest && stepCode != http.StatusNotFound {
			t.Errorf("step racing finish status = %d", stepCode)
		}
		if code, _ := do(t, h, "POST", "/explore/finish?session="+id); code != http.StatusNotFound {
			t.Errorf("finished session still reachable: %d", code)
		}
	}
}

// TestExploreFirstStepOutsideStart: the first step must select an object of
// the start result. A key of the same store that the start query did not
// return is refused with a 400.
func TestExploreFirstStepOutsideStart(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	id, first := startSession(t, h, `SELECT * FROM sales WHERE seq < 1`)
	outside := "transactions.sales.s1"
	if outside == first {
		t.Fatalf("start object %s is the key meant to be outside the start", first)
	}
	if code, _ := do(t, h, "GET", "/object?key="+outside); code != http.StatusOK {
		t.Fatalf("%s does not exist (status %d); pick another outside key", outside, code)
	}
	if code, body := do(t, h, "POST", "/explore/step?session="+id+"&key="+outside); code != http.StatusBadRequest {
		t.Errorf("first step outside the start result = %d %v, want 400", code, body)
	}
	if code, body := do(t, h, "POST", "/explore/step?session="+id+"&key="+url.QueryEscape(first)); code != http.StatusOK {
		t.Errorf("first step on the start object = %d %v, want 200", code, body)
	}
}

func TestHandleStats(t *testing.T) {
	s := newTestServer(t)
	if cfg := stats(t, s)["config"]; cfg != "OUTER-BATCH(batch=64,threads=8,cache=0)" {
		t.Errorf("config = %v", cfg)
	}
	h := s.Handler()
	if keys := metric(t, h, "quepa_index_keys"); keys == 0 {
		t.Error("quepa_index_keys = 0 on a built index")
	}
	if edges := metric(t, h, "quepa_index_edges"); edges == 0 {
		t.Error("quepa_index_edges = 0 on a built index")
	}
}

// TestStatsKeysHaveSeries: every series DESIGN §3.1's old-key table names
// as the new home of a /stats number is on /metrics of a durable server with
// an SLO objective, after one search and one exploration.
func TestStatsKeysHaveSeries(t *testing.T) {
	design, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(design), "| Old `/stats` key | New home |\n")
	if !ok {
		t.Fatal("DESIGN.md has no old /stats key table")
	}
	table, _, _ = strings.Cut(table, "\n\n")
	homes := map[string]bool{}
	for _, row := range strings.Split(table, "\n") {
		cells := strings.Split(row, "|")
		if len(cells) != 4 {
			t.Fatalf("table row %q does not have two cells", row)
		}
		for _, m := range seriesInCell.FindAllStringSubmatch(cells[2], -1) {
			homes[m[1]] = true
		}
	}
	if len(homes) < 25 {
		t.Fatalf("found %d series in the table, want the whole table: %v", len(homes), homes)
	}

	s := mustNew(t, server.Config{Workload: smallWorkload(t), DataDir: t.TempDir(), SLOSearchP99: 25 * time.Millisecond})
	h := s.Handler()
	q := url.QueryEscape(`SELECT * FROM inventory WHERE seq < 2`)
	if code, body := do(t, h, "GET", "/search?db=transactions&level=1&q="+q); code != http.StatusOK {
		t.Fatalf("search = %d %v", code, body)
	}
	id, first := startSession(t, h, `SELECT * FROM sales WHERE seq < 1`)
	if code, body := do(t, h, "POST", "/explore/step?session="+id+"&key="+url.QueryEscape(first)); code != http.StatusOK {
		t.Fatalf("step = %d %v", code, body)
	}
	if code, body := do(t, h, "POST", "/explore/finish?session="+id); code != http.StatusOK {
		t.Fatalf("finish = %d %v", code, body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for name := range homes {
		if !strings.Contains(rec.Body.String(), "# TYPE "+name+" ") {
			t.Errorf("%s: named in DESIGN's /stats table, absent from /metrics", name)
		}
	}
}

var seriesInCell = regexp.MustCompile("`(quepa_[a-z0-9_]+)`")

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
	// Drive a search through the augmenter twice so the strategy histogram
	// is non-empty.
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
		"quepa_store_op_duration_seconds_bucket",
		"quepa_index_keys",
		"# TYPE quepa_aindex_components gauge",
		"quepa_aindex_component_max_keys",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	// The server runs without an object cache, so it exports no series of one.
	if strings.Contains(out, "quepa_cache_") {
		t.Error("metrics output has quepa_cache_* series, but the server runs no object cache")
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
	for _, key := range []string{"slow_threshold_ms", "sampling", "traces"} {
		if _, ok := body[key]; !ok {
			t.Errorf("traces body missing %q: %v", key, body)
		}
	}
	for _, key := range []string{"roots_seen", "roots_kept"} {
		if _, ok := body[key]; ok {
			t.Errorf("traces body repeats sampling as %q", key)
		}
	}
	sampling, _ := body["sampling"].(map[string]any)
	for _, key := range []string{"seen", "kept"} {
		if _, ok := sampling[key].(float64); !ok {
			t.Errorf("sampling missing %q: %v", key, sampling)
		}
	}
}

// TestStatsTelemetry: the numbers the old /stats telemetry section
// printed are series, and the ratios and quantiles follow from them; the
// object cache's went with the cache.
func TestStatsTelemetry(t *testing.T) {
	s := newTestServer(t)
	h := s.Handler()
	q := url.QueryEscape(`SELECT * FROM inventory WHERE seq < 2`)
	runs := metric(t, h, `quepa_augment_duration_seconds_count{strategy="OUTER-BATCH"}`)
	for i := 0; i < 2; i++ {
		if code, _ := do(t, h, "GET", "/search?db=transactions&q="+q+"&level=1"); code != http.StatusOK {
			t.Fatalf("search failed")
		}
	}
	// The object cache is off (DESIGN §3.18): its series are gone, not zero.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if strings.Contains(rec.Body.String(), "quepa_cache_") {
		t.Error("/metrics has quepa_cache_* series after searches, but the server runs no object cache")
	}
	// Two origins: no outcome-cache hit, so both searches ran the strategy.
	if got := metric(t, h, `quepa_augment_duration_seconds_count{strategy="OUTER-BATCH"}`) - runs; got < 2 {
		t.Errorf("OUTER-BATCH ran %v times, want >= 2", got)
	}
	if inf := metric(t, h, `quepa_augment_duration_seconds_bucket{strategy="OUTER-BATCH",le="+Inf"}`); inf < 2 {
		t.Errorf("OUTER-BATCH +Inf bucket = %v, want >= 2", inf)
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
// at once — the per-route counter table fills on first sight of a status
// under contention — and checks no request went uncounted. Meant for -race.
func TestRoutesConcurrent(t *testing.T) {
	s := newTestServer(t)
	mux := s.Handler()
	// Two origins: never an outcome-cache hit, so every search runs a strategy.
	good := "/search?db=transactions&level=1&q=" + url.QueryEscape("SELECT * FROM inventory WHERE seq < 2")
	count := func(code string) uint64 {
		return telemetry.Default().Counter("quepa_http_requests_total", "",
			telemetry.L("route", "/search"), telemetry.L("code", code)).Value()
	}
	ok0, bad0 := count("200"), count("400")
	const workers, each = 8, 40
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
	if cfg := stats(t, s)["config"]; cfg != "OUTER-BATCH(batch=64,threads=8,cache=0)" {
		t.Errorf("config after %d searches = %v", workers*each, cfg)
	}
}
