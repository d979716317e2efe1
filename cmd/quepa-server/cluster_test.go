package main

// The cluster acceptance suite: three in-process peers — peers 1 and 2 are
// bare shard nodes behind real wire listeners, peer 0 is a full HTTP server
// assembled through main's own cluster wiring (setupCluster + newServer +
// installCluster). It checks the headline behaviours of the distributed
// deployment: healthy searches answer through scatter-gather, killing a peer
// keeps /search at 200 with a "peer-open" degradation once the breaker
// opens, and /healthz and /stats expose the cluster sections.

import (
	"net"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"quepa/internal/augment"
	"quepa/internal/cluster"
	"quepa/internal/explain"
	"quepa/internal/resilience"
	"quepa/internal/wire"
	"quepa/internal/workload"
)

// startClusterServer brings up the 3-peer deployment and returns peer 0's
// HTTP server plus the other peers' wire servers (for the test to kill).
func startClusterServer(t *testing.T) (*server, []*wire.Server) {
	t.Helper()
	spec := workload.DefaultSpec()
	spec.Artists = 12
	spec.AlbumsPerArtist = 2
	spec.Customers = 20

	const peers = 3
	lns := make([]net.Listener, peers)
	addrs := make([]string, peers)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	ring, err := cluster.NewRing(peers, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	var remotes []*wire.Server
	for shard := 1; shard < peers; shard++ {
		built, err := workload.Build(spec, workload.Colocated())
		if err != nil {
			t.Fatal(err)
		}
		idx, err := cluster.BuildShard(built.Index, ring, shard)
		if err != nil {
			t.Fatal(err)
		}
		srv := wire.ServeOn(cluster.NewNode(shard, idx, built.Poly), lns[shard])
		remotes = append(remotes, srv)
		t.Cleanup(func() { srv.Close() })
	}

	built, err := workload.Build(spec, workload.Colocated())
	if err != nil {
		t.Fatal(err)
	}
	bcfg := resilience.BreakerConfig{FailureThreshold: 2, Cooldown: time.Hour}
	rt, err := setupCluster(built, strings.Join(addrs, ","), 0, 16, 0, bcfg, 2, lns[0])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.close() })
	// Tight single-attempt deadlines so a killed peer fails fast in tests.
	s, err := newServer(built, augment.Config{Strategy: augment.OuterBatch, CacheSize: 0},
		explain.DefaultBufferCapacity, 0, bcfg)
	if err != nil {
		t.Fatal(err)
	}
	s.installCluster(rt)
	return s, remotes
}

func TestServerClusterSearchAndPeerDown(t *testing.T) {
	s, remotes := startClusterServer(t)
	query, err := s.built.Query("transactions", 4)
	if err != nil {
		t.Fatal(err)
	}
	search := "/search?db=transactions&q=" + url.QueryEscape(query) + "&level=2"

	// Healthy cluster: searches answer 200 with no degraded section, and the
	// status pages carry the cluster identity.
	code, body := do(t, s.handleSearch, "GET", search)
	if code != http.StatusOK {
		t.Fatalf("healthy cluster search = %d %v", code, body)
	}
	if got := degradedStores(t, body); len(got) != 0 {
		t.Fatalf("healthy cluster search degraded: %v", got)
	}
	if orig, _ := body["original"].([]any); len(orig) == 0 {
		t.Fatal("healthy cluster search returned no originals")
	}
	code, health := do(t, s.handleHealthz, "GET", "/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthy cluster healthz = %d %v", code, health)
	}
	cl, ok := health["cluster"].(map[string]any)
	if !ok {
		t.Fatalf("healthz has no cluster section: %v", health)
	}
	if cl["peers"] != float64(3) || cl["self"] != float64(0) || cl["ring_version"] == float64(0) {
		t.Fatalf("healthz cluster section = %v", cl)
	}
	if list, _ := cl["peer_list"].([]any); len(list) != 3 {
		t.Fatalf("healthz peer list = %v", cl["peer_list"])
	}
	code, stats := do(t, s.handleStats, "GET", "/stats")
	if code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	scl, ok := stats["cluster"].(map[string]any)
	if !ok || scl["peers"] != float64(3) {
		t.Fatalf("stats cluster section = %v", stats["cluster"])
	}
	if list, _ := scl["peer_list"].([]any); len(list) != 3 {
		t.Fatalf("stats peer list = %v", scl["peer_list"])
	} else if row, _ := list[1].(map[string]any); row["owned_ranges"] == float64(0) || row["ranges"] == nil {
		t.Fatalf("stats peer row lacks owned ranges: %v", row)
	}

	// Kill peer 1. The first searches after the kill fail its scatter legs
	// (recording breaker failures); once the breaker opens, searches keep
	// answering 200 with a "peer-open" degradation — the acceptance
	// behaviour of the cluster CI lane.
	remotes[0].Close()
	deadline := time.Now().Add(30 * time.Second)
	sawPeerOpen := false
	for !sawPeerOpen {
		if time.Now().After(deadline) {
			t.Fatal("no peer-open degradation within 30s of killing peer 1")
		}
		code, body := do(t, s.handleSearch, "GET", search)
		if code != http.StatusOK {
			t.Fatalf("post-kill search = %d %v, want 200 with degradation", code, body)
		}
		raw, _ := body["degraded"].([]any)
		for _, e := range raw {
			entry, _ := e.(map[string]any)
			if entry["reason"] == "peer-open" {
				sawPeerOpen = true
				if entry["store"] == "" {
					t.Fatalf("peer-open degradation without a store: %v", entry)
				}
			}
		}
	}

	// The probe and the stats page agree: the peer's breaker is open.
	code, health = do(t, s.handleHealthz, "GET", "/healthz")
	if code != http.StatusServiceUnavailable || health["status"] != "degraded" {
		t.Fatalf("healthz with dead peer = %d %v", code, health)
	}
	cl, _ = health["cluster"].(map[string]any)
	open := false
	if list, _ := cl["peer_list"].([]any); len(list) == 3 {
		for _, e := range list {
			row, _ := e.(map[string]any)
			if b, _ := row["breaker"].(map[string]any); b != nil && b["state"] == "open" {
				open = true
			}
		}
	}
	if !open {
		t.Fatalf("no open peer breaker in healthz cluster section: %v", cl)
	}
}
