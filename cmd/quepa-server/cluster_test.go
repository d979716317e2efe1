package main

// The cluster acceptance suite: three in-process peers — peers 1 and 2 are
// bare shard nodes behind real wire listeners, peer 0 is a full HTTP server
// assembled by server.New in cluster mode, as main assembles it. It checks
// the headline behaviours of the distributed deployment: healthy searches
// answer through scatter-gather, killing a peer keeps /search at 200 with a
// "peer-open" degradation once the breaker opens and loses nothing but the
// reach that peer owns, and /healthz and /stats expose the cluster sections.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"quepa/internal/cluster"
	"quepa/internal/core"
	"quepa/internal/resilience"
	"quepa/internal/server"
	"quepa/internal/wire"
	"quepa/internal/workload"
)

// startClusterServer brings up the 3-peer deployment and returns peer 0's
// HTTP server, the workload it serves, and the other peers' wire servers
// (for the test to kill).
func startClusterServer(t *testing.T) (*server.Server, *workload.Built, []*wire.Server) {
	t.Helper()
	spec := workload.DefaultSpec()
	spec.Artists = 12
	spec.AlbumsPerArtist = 2
	spec.Customers = 20

	const peers = 3
	// Peer 0 binds its own wire address; no peer here ever dials it, so any
	// free port will do.
	addrs := []string{"127.0.0.1:0"}
	lns := make([]net.Listener, peers)
	for i := 1; i < peers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs = append(addrs, ln.Addr().String())
	}
	ring, err := cluster.NewRing(peers, cluster.DefaultVnodes, 0)
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
	// A short failure run and no cooldown inside the test: a killed peer
	// opens its breaker fast and stays open.
	s := mustNew(t, server.Config{Workload: built, Cluster: strings.Join(addrs, ","), ShardID: 0, Pool: 2,
		Breaker: resilience.BreakerConfig{FailureThreshold: 2, Cooldown: time.Hour}})
	return s, built, remotes
}

func TestServerClusterSearchAndPeerDown(t *testing.T) {
	s, built, remotes := startClusterServer(t)
	query, err := built.Query("transactions", 4)
	if err != nil {
		t.Fatal(err)
	}
	search := "/search?db=transactions&q=" + url.QueryEscape(query) + "&level=2"

	// Healthy cluster: searches answer 200 with no degraded section, and the
	// status pages carry the cluster identity.
	code, body := do(t, s.Handler(), "GET", search)
	if code != http.StatusOK {
		t.Fatalf("healthy cluster search = %d %v", code, body)
	}
	if got := degradedStores(t, body); len(got) != 0 {
		t.Fatalf("healthy cluster search degraded: %v", got)
	}
	if orig, _ := body["original"].([]any); len(orig) == 0 {
		t.Fatal("healthy cluster search returned no originals")
	}
	code, health := do(t, s.Handler(), "GET", "/healthz")
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
	code, stats := do(t, s.Handler(), "GET", "/stats")
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
	// behaviour of the cluster CI lane. Each search starts from an origin
	// not searched before, so neither its reach nor its objects sit in a
	// cache that would spare it the dead peer.
	//
	// A dead peer costs only the reach it owns: every store is a full local
	// replica, so the dead peer is the only degradation (never a database),
	// and every key the degraded scatter returned is in the answer, as the
	// local replica holds it.
	remotes[0].Close()
	sawPeerOpen := false
	for seq := 4; !sawPeerOpen; seq++ {
		if seq >= built.Spec.Albums() {
			t.Fatal("no peer-open degradation after searching from every origin")
		}
		q := fmt.Sprintf("SELECT * FROM inventory WHERE seq >= %d AND seq < %d", seq, seq+1)
		code, body := do(t, s.Handler(), "GET", "/search?db=transactions&level=2&explain=1&q="+url.QueryEscape(q))
		if code != http.StatusOK {
			t.Fatalf("post-kill search = %d %v, want 200 with degradation", code, body)
		}
		raw, _ := body["degraded"].([]any)
		for _, e := range raw {
			entry, _ := e.(map[string]any)
			if entry["store"] != cluster.PeerName(1) {
				t.Fatalf("seq %d: degradation %v, want only the dead %s", seq, entry, cluster.PeerName(1))
			}
			if entry["reason"] == "peer-open" {
				sawPeerOpen = true
			}
		}
		checkLocalAnswer(t, built, seq, body)
	}

	// The probe and the stats page agree: the peer's breaker is open.
	code, health = do(t, s.Handler(), "GET", "/healthz")
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

// checkLocalAnswer asserts that a search answered every key its reach
// planned: the profile's candidate keys were all fetched, all of them are in
// the answer, and each answered object is the local replica's.
func checkLocalAnswer(t *testing.T, built *workload.Built, seq int, body map[string]any) {
	t.Helper()
	profile, _ := body["explain"].(map[string]any)
	augs, _ := profile["augmentations"].([]any)
	if len(augs) != 1 {
		t.Fatalf("seq %d: profile has %d augmentations, want 1", seq, len(augs))
	}
	aug, _ := augs[0].(map[string]any)
	planned, fetched := aug["candidate_keys"], aug["fetched"]
	answered, _ := body["augmented"].([]any)
	if planned != fetched || planned != float64(len(answered)) {
		t.Fatalf("seq %d: reach planned %v keys, %v fetched, %d answered", seq, planned, fetched, len(answered))
	}
	for _, e := range answered {
		obj, _ := e.(map[string]any)
		key, _ := obj["key"].(string)
		want, err := built.Poly.Fetch(context.Background(), core.MustParseGlobalKey(key))
		if err != nil {
			t.Fatalf("seq %d: answered %s, which the local replica lacks: %v", seq, key, err)
		}
		fields, _ := obj["fields"].(map[string]any)
		for name, v := range want.Fields {
			if fields[name] != v || len(fields) != len(want.Fields) {
				t.Fatalf("seq %d: %s answered with fields %v, local replica holds %v", seq, key, fields, want.Fields)
			}
		}
	}
}
