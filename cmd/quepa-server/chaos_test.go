package main

import (
	"net/http"
	"net/url"
	"sync"
	"testing"
	"time"

	"quepa/internal/netsim"
	"quepa/internal/resilience"
	"quepa/internal/server"
	"quepa/internal/workload"
)

// fakeClock drives the breaker cooldown deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// storeBreaker returns the circuit breaker server.New put in front of a
// database of the workload it took over.
func storeBreaker(t *testing.T, built *workload.Built, name string) *resilience.Breaker {
	t.Helper()
	st, err := built.Poly.Database(name)
	if err != nil {
		t.Fatal(err)
	}
	g, ok := st.(*resilience.GuardedStore)
	if !ok {
		t.Fatalf("%s is not behind a breaker: %T", name, st)
	}
	return g.Breaker()
}

// degradedStores extracts the store names of a response's degraded section.
func degradedStores(t *testing.T, body map[string]any) []string {
	t.Helper()
	raw, ok := body["degraded"].([]any)
	if !ok {
		return nil
	}
	var out []string
	for _, e := range raw {
		entry, ok := e.(map[string]any)
		if !ok {
			t.Fatalf("degraded entry %v is not an object", e)
		}
		name, _ := entry["store"].(string)
		out = append(out, name)
	}
	return out
}

// TestServerChaosBreakerLifecycle walks the whole fault-tolerance story
// through the HTTP surface with a deterministic fault plan and clock: the
// catalogue store fails its first three requests (netsim down window), each
// failed search returns 200 with a degraded section instead of an error, the
// third failure opens the breaker (visible in quepa_breakers_open and as a
// 503 from /healthz), an open breaker short-circuits without touching the store, and
// after the cooldown a half-open probe finds the store healthy again and
// closes the breaker.
func TestServerChaosBreakerLifecycle(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.Artists = 10
	spec.AlbumsPerArtist = 2
	built, err := workload.Build(spec, workload.Colocated())
	if err != nil {
		t.Fatal(err)
	}

	// The catalogue store flaps: requests 1-3 fail, request 4 on succeeds.
	cat, err := built.Poly.Database("catalogue")
	if err != nil {
		t.Fatal(err)
	}
	chaos := netsim.NewChaos(cat, netsim.FaultPlan{Seed: 7, Down: []netsim.Window{{From: 1, To: 4}}}, nil)
	built.Poly.Deregister("catalogue")
	if err := built.Poly.Register(chaos); err != nil {
		t.Fatal(err)
	}

	// Failed fetches are never cached, and the first catalogue failure
	// degrades the store, so each search charges exactly one request against
	// the chaos plan until the breaker takes over.
	clock := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	s := mustNew(t, server.Config{Workload: built,
		Breaker: resilience.BreakerConfig{FailureThreshold: 3, Cooldown: time.Minute, Now: clock.now}})
	breaker := storeBreaker(t, built, "catalogue")

	query, err := built.Query("transactions", 4)
	if err != nil {
		t.Fatal(err)
	}
	search := "/search?db=transactions&q=" + url.QueryEscape(query)

	// Healthy server: /healthz is green before any traffic.
	if code, body := do(t, s.Handler(), "GET", "/healthz"); code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("pre-fault healthz = %d %v", code, body)
	}

	// Three searches ride through the down window: each is a 200 with the
	// catalogue store in the degraded section, and each burns exactly one
	// chaos request thanks to skip-after-first-failure.
	for i := 1; i <= 3; i++ {
		code, body := do(t, s.Handler(), "GET", search)
		if code != http.StatusOK {
			t.Fatalf("faulted search %d = %d %v, want 200 with partial answer", i, code, body)
		}
		if got := degradedStores(t, body); len(got) != 1 || got[0] != "catalogue" {
			t.Fatalf("faulted search %d degraded = %v, want [catalogue]", i, got)
		}
		if orig, _ := body["original"].([]any); len(orig) == 0 {
			t.Fatalf("faulted search %d lost its original results", i)
		}
		if n := chaos.Requests(); n != uint64(i) {
			t.Fatalf("chaos requests after search %d = %d, want %d", i, n, i)
		}
	}

	// Three consecutive failures: the catalogue breaker is now open.
	if st := breaker.State(); st != resilience.Open {
		t.Fatalf("breaker state after 3 failures = %v, want open", st)
	}
	code, health := do(t, s.Handler(), "GET", "/healthz")
	if code != http.StatusServiceUnavailable || health["status"] != "degraded" {
		t.Fatalf("healthz with open breaker = %d %v, want 503 degraded", code, health)
	}
	if open := metric(t, s.Handler(), "quepa_breakers_open"); open != 1 {
		t.Errorf("quepa_breakers_open = %v, want 1", open)
	}
	foundOpen := false
	for _, b := range health["breakers"].([]any) {
		snap := b.(map[string]any)
		if snap["store"] == "catalogue" && snap["state"] == "open" {
			foundOpen = true
		}
	}
	if !foundOpen {
		t.Errorf("healthz breakers missing open catalogue: %v", health["breakers"])
	}

	// While open and inside the cooldown, searches short-circuit: still 200 +
	// degraded, but the store itself is never consulted.
	code, body := do(t, s.Handler(), "GET", search)
	if code != http.StatusOK {
		t.Fatalf("open-breaker search = %d %v", code, body)
	}
	if got := degradedStores(t, body); len(got) != 1 || got[0] != "catalogue" {
		t.Fatalf("open-breaker degraded = %v, want [catalogue]", got)
	}
	if n := chaos.Requests(); n != 3 {
		t.Fatalf("open breaker leaked %d requests to the store", n-3)
	}

	// Past the cooldown the next search is admitted as the half-open probe;
	// the down window has ended, so the probe succeeds, the breaker closes,
	// and the answer is whole again.
	clock.advance(2 * time.Minute)
	code, body = do(t, s.Handler(), "GET", search)
	if code != http.StatusOK {
		t.Fatalf("recovery search = %d %v", code, body)
	}
	if got := degradedStores(t, body); got != nil {
		t.Fatalf("recovered search still degraded: %v", got)
	}
	if st := breaker.State(); st != resilience.Closed {
		t.Fatalf("breaker state after successful probe = %v, want closed", st)
	}
	if code, body := do(t, s.Handler(), "GET", "/healthz"); code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("post-recovery healthz = %d %v", code, body)
	}
	if chaos.Requests() <= 3 {
		t.Error("recovery search never reached the store")
	}
}

// TestExploreStepFaultReportsDegraded: the exploration surface carries the
// same partial-answer contract as /search — a store failing mid-step lands in
// the step response's degraded section instead of failing the session.
func TestExploreStepFaultReportsDegraded(t *testing.T) {
	spec := workload.DefaultSpec()
	spec.Artists = 10
	spec.AlbumsPerArtist = 2
	built, err := workload.Build(spec, workload.Colocated())
	if err != nil {
		t.Fatal(err)
	}
	cat, err := built.Poly.Database("catalogue")
	if err != nil {
		t.Fatal(err)
	}
	// Down forever: every expansion that needs the catalogue store degrades.
	chaos := netsim.NewChaos(cat, netsim.FaultPlan{Down: []netsim.Window{{From: 1}}}, nil)
	built.Poly.Deregister("catalogue")
	if err := built.Poly.Register(chaos); err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, server.Config{Workload: built, Breaker: resilience.BreakerConfig{FailureThreshold: 100}})

	query, err := built.Query("transactions", 2)
	if err != nil {
		t.Fatal(err)
	}
	code, body := do(t, s.Handler(), "POST", "/explore?db=transactions&q="+url.QueryEscape(query))
	if code != http.StatusOK {
		t.Fatalf("explore start = %d %v", code, body)
	}
	session, _ := body["session"].(string)
	objects, _ := body["objects"].([]any)
	if session == "" || len(objects) == 0 {
		t.Fatalf("explore start body = %v", body)
	}
	first := objects[0].(map[string]any)["key"].(string)

	code, body = do(t, s.Handler(), "POST", "/explore/step?session="+session+"&key="+url.QueryEscape(first))
	if code != http.StatusOK {
		t.Fatalf("step over dead store = %d %v, want 200 partial", code, body)
	}
	if got := degradedStores(t, body); len(got) != 1 || got[0] != "catalogue" {
		t.Fatalf("step degraded = %v, want [catalogue]", got)
	}
}
