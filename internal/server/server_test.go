package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"quepa/internal/augment"
	"quepa/internal/workload"
)

// The HTTP surface is tested beside the command that serves it
// (cmd/quepa-server), through New and Handler alone. The tests here need the
// server's insides.

// smallWorkload builds the 10-artist dataset the tests serve.
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

// mustNew assembles a server and closes it when the test ends.
func mustNew(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// do serves one request through the server's handler and decodes the JSON
// object it answered.
func do(t testing.TB, s *Server, method, target string) (int, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(method, target, nil))
	var body map[string]any
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
		body = map[string]any{}
	}
	return rec.Code, body
}

// TestLastSeenBounded: the per-signature feature memory must not grow past
// maxLastSeen under high-cardinality query traffic; the oldest (first-seen)
// signatures are evicted, updates to known signatures don't consume slots.
func TestLastSeenBounded(t *testing.T) {
	s := mustNew(t, Config{Workload: smallWorkload(t)})
	// Memoized answers are remembered but not logged: the loop stays clear
	// of the optimizer.
	answer := &augment.Answer{Memoized: true}
	for i := 0; i < maxLastSeen+10; i++ {
		s.observe("transactions", "SELECT "+strconv.Itoa(i), 0, baseConfig, answer, 0)
	}
	// Re-observing a known signature must not evict anything further.
	s.observe("transactions", "SELECT "+strconv.Itoa(maxLastSeen), 0, baseConfig, answer, 0)

	s.optMu.Lock()
	defer s.optMu.Unlock()
	if len(s.lastSeen) != maxLastSeen || len(s.lastSeenOrder) != maxLastSeen {
		t.Fatalf("lastSeen size = %d (order %d), want %d", len(s.lastSeen), len(s.lastSeenOrder), maxLastSeen)
	}
	if _, ok := s.lastSeen[queryKey{"transactions", "SELECT 0", 0}]; ok {
		t.Error("oldest signature survived past the bound")
	}
	if _, ok := s.lastSeen[queryKey{"transactions", "SELECT " + strconv.Itoa(maxLastSeen), 0}]; !ok {
		t.Error("newest signature missing")
	}
	if n := s.opt.LogCount(); n != 0 {
		t.Errorf("memoized answers logged %d runs", n)
	}
}

// TestCheckpointLoopBoundsReplay drives the ticker and verifies checkpoints
// actually land (Stats.Checkpoints grows beyond the seed checkpoint).
func TestCheckpointLoopBoundsReplay(t *testing.T) {
	s := mustNew(t, Config{Workload: smallWorkload(t), DataDir: t.TempDir(), Fsync: "off"})
	m := s.wal
	base := m.Stats().Checkpoints

	stop := startCheckpointLoop(m, 5*time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for m.Stats().Checkpoints < base+2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	if got := m.Stats().Checkpoints; got < base+2 {
		t.Fatalf("checkpoint loop wrote %d checkpoints, want >= %d", got, base+2)
	}
	// Nil manager / zero interval are no-ops, not panics.
	startCheckpointLoop(nil, time.Second)()
	startCheckpointLoop(m, 0)()
	if code, _ := do(t, s, "GET", "/healthz"); code != http.StatusOK {
		t.Errorf("healthz after the checkpoint loop = %d", code)
	}
}
