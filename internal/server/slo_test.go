package server

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"quepa/internal/slo"
	"quepa/internal/telemetry"
)

// TestSLOFastBurnHealthzAndProfiles drives the full alerting path New
// wires: a route burns its error budget fast, /healthz flips to 503 naming
// the route, /metrics carries the burn rates, and the engine's one-shot trip
// hook drops goroutine+heap pprof snapshots into the data dir. The engine is
// driven with explicit Sample timestamps (its own sampler ticks every
// slo.DefaultInterval, long after the test is done), so the test is
// deterministic and never sleeps.
func TestSLOFastBurnHealthzAndProfiles(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)

	dir := t.TempDir()
	s := mustNew(t, Config{Workload: smallWorkload(t), DataDir: dir, SLOSearchP99: 25 * time.Millisecond, SLOTarget: 0.99})
	engine := s.slo

	// Healthy before any traffic: /healthz is 200 and /metrics exports both
	// windows' burn rates at zero.
	if code, body := do(t, s, "GET", "/healthz"); code != http.StatusOK {
		t.Fatalf("healthy /healthz = %d %v", code, body)
	}
	for _, window := range []string{"5m", "1h"} {
		if burn := burnRate(t, s, window); burn != 0 {
			t.Errorf("%s burn before traffic = %v, want 0", window, burn)
		}
	}

	// Every request blows the 25ms objective: burn = 1/budget = 100 in both
	// windows, far over the default threshold of 14.
	hist := telemetry.Default().Histogram(slo.RequestHistogram, "latency of HTTP requests by route",
		nil, telemetry.L("route", "/search"))
	t0 := time.Now()
	engine.Sample(t0)
	for i := 0; i < 100; i++ {
		hist.Observe(time.Second)
	}
	engine.Sample(t0.Add(6 * time.Second))

	if !engine.Tripped() {
		t.Fatal("engine did not trip on all-bad traffic")
	}
	code, body := do(t, s, "GET", "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz during fast burn = %d %v", code, body)
	}
	if body["status"] != "degraded" {
		t.Errorf("status = %v, want degraded", body["status"])
	}
	burning, ok := body["slo_fast_burn"].([]any)
	if !ok || len(burning) != 1 || burning[0] != "/search" {
		t.Errorf("slo_fast_burn = %v, want [/search]", body["slo_fast_burn"])
	}

	// /metrics reflects the burn on the same objective, over the fast-burn
	// threshold in both windows.
	for _, window := range []string{"5m", "1h"} {
		if burn := burnRate(t, s, window); burn < slo.DefaultFastBurn {
			t.Errorf("%s burn = %v, want ~100", window, burn)
		}
	}

	// The first (and only the first) trip captured both profiles.
	for _, profile := range []string{"goroutine", "heap"} {
		matches, err := filepath.Glob(filepath.Join(dir, "fastburn-*-"+profile+".pprof"))
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) != 1 {
			t.Errorf("%s profiles captured = %v, want exactly one", profile, matches)
		}
	}
	// Still burning on the next sample: no second capture.
	engine.Sample(t0.Add(7 * time.Second))
	matches, _ := filepath.Glob(filepath.Join(dir, "fastburn-*.pprof"))
	if len(matches) != 2 {
		t.Errorf("profiles after second sample = %v, want the original two", matches)
	}
}

// burnRate scrapes /metrics for the /search route's burn rate over window.
func burnRate(t *testing.T, s *Server, window string) float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	series := slo.BurnGauge + `{route="/search",window="` + window + `"} `
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no %s", series)
	return 0
}
