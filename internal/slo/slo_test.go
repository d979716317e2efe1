package slo

import (
	"math"
	"strings"
	"testing"
	"time"

	"quepa/internal/telemetry"
)

// testEngine wires an engine to a private registry with second-scale windows
// so tests drive the clock explicitly through Sample.
func testEngine(t *testing.T, target, fastBurn float64, onTrip func(string)) (*Engine, *telemetry.Histogram, *telemetry.Counter) {
	t.Helper()
	reg := telemetry.NewRegistry()
	eng, err := New(Config{
		Objectives:  []Objective{{Route: "/search", Latency: 25 * time.Millisecond, Target: target}},
		FastBurn:    fastBurn,
		ShortWindow: 5 * time.Second,
		LongWindow:  60 * time.Second,
		Registry:    reg,
		OnFastBurn:  onTrip,
	})
	if err != nil {
		t.Fatal(err)
	}
	hist := reg.Histogram(RequestHistogram, "", nil, telemetry.L("route", "/search"))
	errs := reg.Counter(ErrorCounter, "", telemetry.L("route", "/search"))
	return eng, hist, errs
}

// routeBurn is what the engine publishes for its first route: the two burn
// rates the quepa_slo_burn_rate gauges read, and the fast-burn flag.
type routeBurn struct {
	BurnShort, BurnLong float64
	FastBurn            bool
}

func firstRoute(e *Engine) routeBurn {
	rs := e.routes[0]
	return routeBurn{
		BurnShort: math.Float64frombits(rs.burnShort.Load()),
		BurnLong:  math.Float64frombits(rs.burnLong.Load()),
		FastBurn:  rs.fast.Load(),
	}
}

func observeN(h *telemetry.Histogram, n int, d time.Duration) {
	for i := 0; i < n; i++ {
		h.Observe(d)
	}
}

func TestBurnRateMath(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	// Target 0.99 -> budget 0.01. 100 requests, 50 bad -> badFrac 0.5 ->
	// burn 50.
	eng, hist, _ := testEngine(t, 0.99, 1000, nil)
	base := time.Unix(1_700_000_000, 0)
	eng.Sample(base)
	observeN(hist, 50, time.Millisecond)     // good (<= 25ms objective)
	observeN(hist, 50, 100*time.Millisecond) // bad
	eng.Sample(base.Add(2 * time.Second))

	st := firstRoute(eng)
	if st.BurnShort < 49.9 || st.BurnShort > 50.1 {
		t.Fatalf("short burn = %v, want ~50", st.BurnShort)
	}
	if st.BurnLong < 49.9 || st.BurnLong > 50.1 {
		t.Fatalf("long burn = %v, want ~50", st.BurnLong)
	}
	if st.FastBurn {
		t.Fatal("fast burn tripped below threshold 1000")
	}
}

func TestErrorsCountAgainstBudget(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	eng, hist, errs := testEngine(t, 0.99, 1000, nil)
	base := time.Unix(1_700_000_000, 0)
	eng.Sample(base)
	// All requests fast, but 10 of 100 were 5xx -> badFrac 0.1 -> burn 10.
	observeN(hist, 100, time.Millisecond)
	errs.Add(10)
	eng.Sample(base.Add(2 * time.Second))
	if b := firstRoute(eng).BurnShort; b < 9.9 || b > 10.1 {
		t.Fatalf("burn = %v, want ~10", b)
	}
}

func TestBadCappedAtTotal(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	// Slow AND erroring requests are counted by both terms; the cap keeps
	// badFrac at 1, so burn tops out at 1/budget.
	eng, hist, errs := testEngine(t, 0.9, 1000, nil)
	base := time.Unix(1_700_000_000, 0)
	eng.Sample(base)
	observeN(hist, 10, time.Second)
	errs.Add(10)
	eng.Sample(base.Add(2 * time.Second))
	if b := firstRoute(eng).BurnShort; b < 9.99 || b > 10.01 {
		t.Fatalf("burn = %v, want 10 (= 1/budget)", b)
	}
}

func TestFastBurnRequiresBothWindows(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	var trips []string
	eng, hist, _ := testEngine(t, 0.99, 14, func(route string) { trips = append(trips, route) })
	base := time.Unix(1_700_000_000, 0)

	// A long healthy hour: 10k good requests spread over the long window.
	now := base
	for i := 0; i < 60; i++ {
		observeN(hist, 100, time.Millisecond)
		now = now.Add(time.Second)
		eng.Sample(now)
	}
	if eng.Tripped() {
		t.Fatal("tripped while healthy")
	}

	// A short total outage: every request slow. The short window saturates
	// immediately; the long window still averages in the healthy hour, so
	// the first degraded samples must NOT page.
	observeN(hist, 50, time.Second)
	now = now.Add(time.Second)
	eng.Sample(now)
	st := firstRoute(eng)
	if st.FastBurn {
		t.Fatalf("tripped on first degraded sample: short=%v long=%v", st.BurnShort, st.BurnLong)
	}

	// Sustained outage: once enough bad traffic accumulates, both windows
	// cross the threshold and the trip fires exactly once.
	for i := 0; i < 30; i++ {
		observeN(hist, 100, time.Second)
		now = now.Add(time.Second)
		eng.Sample(now)
	}
	if !eng.Tripped() {
		t.Fatal("sustained outage did not trip fast burn")
	}
	if len(eng.FastBurning()) == 0 {
		t.Fatal("no route fast-burning during the outage")
	}
	if len(trips) != 1 || trips[0] != "/search" {
		t.Fatalf("OnFastBurn calls = %v, want exactly one for /search", trips)
	}

	// Recovery: good traffic drains the short window first; the engine must
	// come back healthy without a second trip.
	for i := 0; i < 120; i++ {
		observeN(hist, 100, time.Millisecond)
		now = now.Add(time.Second)
		eng.Sample(now)
	}
	if len(eng.FastBurning()) != 0 {
		st := firstRoute(eng)
		t.Fatalf("did not recover: short=%v long=%v", st.BurnShort, st.BurnLong)
	}
	if len(trips) != 1 {
		t.Fatalf("OnFastBurn fired %d times, want once for the engine's life", len(trips))
	}
}

func TestBurnGaugesExported(t *testing.T) {
	prev := telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(prev)
	reg := telemetry.NewRegistry()
	eng, err := New(Config{
		Objectives: []Objective{{Route: "/search", Latency: 25 * time.Millisecond}},
		Registry:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	hist := reg.Histogram(RequestHistogram, "", nil, telemetry.L("route", "/search"))
	base := time.Unix(1_700_000_000, 0)
	eng.Sample(base)
	observeN(hist, 10, time.Second)
	eng.Sample(base.Add(time.Minute))

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// Float division by the 0.01 budget is not exactly 100, so pin the series
	// identity in the exposition and the magnitude from the snapshot.
	for _, want := range []string{
		`quepa_slo_burn_rate{route="/search",window="5m"} `,
		`quepa_slo_burn_rate{route="/search",window="1h"} `,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing series %q:\n%s", want, out)
		}
	}
	if b := firstRoute(eng).BurnShort; b < 99.9 || b > 100.1 {
		t.Fatalf("short burn = %v, want ~100", b)
	}
}

func TestConfigValidation(t *testing.T) {
	reg := telemetry.NewRegistry()
	if _, err := New(Config{Registry: reg}); err == nil {
		t.Fatal("no objectives accepted")
	}
	if _, err := New(Config{Registry: reg,
		Objectives: []Objective{{Route: "/x", Latency: time.Second, Target: 1.5}}}); err == nil {
		t.Fatal("target 1.5 accepted")
	}
	if _, err := New(Config{Registry: reg,
		Objectives: []Objective{{Route: "/x", Target: 0.9}}}); err == nil {
		t.Fatal("zero latency objective accepted")
	}
	if _, err := New(Config{Registry: reg, ShortWindow: time.Hour, LongWindow: time.Minute,
		Objectives: []Objective{{Route: "/x", Latency: time.Second, Target: 0.9}}}); err == nil {
		t.Fatal("inverted windows accepted")
	}
}

func TestStartStop(t *testing.T) {
	reg := telemetry.NewRegistry()
	eng, err := New(Config{
		Objectives: []Objective{{Route: "/x", Latency: time.Second, Target: 0.9}},
		Interval:   time.Millisecond,
		Registry:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	time.Sleep(5 * time.Millisecond)
	eng.Stop()
	// Stop without Start must not hang either.
	eng2, _ := New(Config{
		Objectives: []Objective{{Route: "/x", Latency: time.Second, Target: 0.9}},
		Registry:   telemetry.NewRegistry(),
	})
	eng2.Stop()
}
