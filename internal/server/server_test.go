package server

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
	"time"

	"quepa/internal/telemetry"
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

// TestCheckpointLoopBoundsReplay drives the ticker and verifies checkpoints
// actually land (quepa_checkpoints_total grows beyond the seed checkpoint).
func TestCheckpointLoopBoundsReplay(t *testing.T) {
	s := mustNew(t, Config{Workload: smallWorkload(t), DataDir: t.TempDir(), Fsync: "off"})
	m := s.wal
	checkpoints := telemetry.Default().Counter("quepa_checkpoints_total", "")
	base := checkpoints.Value()

	stop := startCheckpointLoop(m, 5*time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for checkpoints.Value() < base+2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	if got := checkpoints.Value() - base; got < 2 {
		t.Fatalf("checkpoint loop wrote %d checkpoints, want >= 2", got)
	}
	// Nil manager / zero interval are no-ops, not panics.
	startCheckpointLoop(nil, time.Second)()
	startCheckpointLoop(m, 0)()
	if code, _ := do(t, s, "GET", "/healthz"); code != http.StatusOK {
		t.Errorf("healthz after the checkpoint loop = %d", code)
	}
}

// TestSearchRunsBaseConfig: every search runs the server's one
// configuration, OUTER-BATCH with 64-key batches, 8 threads and no object
// cache. With the result cache off every search runs a
// strategy; 300 of them go past the 256 runs after which the server's
// former optimizer loop retrained, and neither the strategy the profile
// reports nor the configuration /stats reports may move.
func TestSearchRunsBaseConfig(t *testing.T) {
	s := mustNew(t, Config{Workload: smallWorkload(t)})
	s.rcache.Resize(0)
	const want = "OUTER-BATCH(batch=64,threads=8,cache=0)"
	for i := 0; i < 300; i++ {
		level := 1 + i%2
		q := "SELECT * FROM inventory WHERE seq < " + strconv.Itoa(1+i%5)
		code, body := do(t, s, "GET",
			"/search?explain=1&db=transactions&level="+strconv.Itoa(level)+"&q="+url.QueryEscape(q))
		if code != http.StatusOK {
			t.Fatalf("search %d = %d %v", i, code, body)
		}
		p, _ := body["explain"].(map[string]any)
		augs, _ := p["augmentations"].([]any)
		if len(augs) == 0 {
			t.Fatalf("search %d: no augmentation in the profile", i)
		}
		for _, a := range augs {
			if ran := a.(map[string]any)["strategy"]; ran != "OUTER-BATCH" {
				t.Fatalf("search %d ran %v, want OUTER-BATCH", i, ran)
			}
		}
		if _, stats := do(t, s, "GET", "/stats"); stats["config"] != want {
			t.Fatalf("after search %d /stats config = %v, want %s", i, stats["config"], want)
		}
	}
}

// TestResultCacheSingleNodeOnly: a single-node server memoizes outcomes in
// its result cache; a cluster peer, whose reaches scatter to the owners,
// builds none. Checked on the Server value: the /metrics registry is
// process-wide, so a single-node server earlier in this binary would
// already have registered the quepa_rcache_* series.
func TestResultCacheSingleNodeOnly(t *testing.T) {
	if s := mustNew(t, Config{Workload: smallWorkload(t)}); s.rcache == nil {
		t.Error("single-node server has no result cache")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if s := mustNew(t, Config{Workload: smallWorkload(t), Cluster: addr}); s.rcache != nil {
		t.Error("cluster peer built a result cache it never probes")
	}
}
