package server

import (
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"quepa/internal/slo"
	"quepa/internal/telemetry"
)

// TestSLOFastBurnHealthzAndProfiles drives the full alerting path New
// wires: a route burns its error budget fast, /healthz flips to 503 naming
// the route, /stats grows the slo section, and the engine's one-shot trip
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

	// Healthy before any traffic: /healthz is 200 and /stats lists the
	// objective with no burn.
	if code, body := do(t, s, "GET", "/healthz"); code != http.StatusOK {
		t.Fatalf("healthy /healthz = %d %v", code, body)
	}
	_, stats := do(t, s, "GET", "/stats")
	sloSec, ok := stats["slo"].(map[string]any)
	if !ok {
		t.Fatalf("/stats has no slo section: %v", stats["slo"])
	}
	if sloSec["fast_burn_threshold"] != float64(slo.DefaultFastBurn) {
		t.Errorf("fast_burn_threshold = %v, want %v", sloSec["fast_burn_threshold"], slo.DefaultFastBurn)
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

	// /stats reflects the burn on the same objective.
	_, stats = do(t, s, "GET", "/stats")
	objectives, _ := stats["slo"].(map[string]any)["objectives"].([]any)
	if len(objectives) != 1 {
		t.Fatalf("slo objectives = %v, want one", objectives)
	}
	obj := objectives[0].(map[string]any)
	if obj["route"] != "/search" || obj["fast_burn"] != true {
		t.Errorf("objective = %v, want /search fast-burning", obj)
	}
	if burn := obj["burn_short"].(float64); burn < 50 {
		t.Errorf("burn_short = %v, want ~100", burn)
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
