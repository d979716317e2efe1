package main

// The cluster acceptance suite: the README walkthrough in one process. Three
// peers, each a full server assembled by server.New in cluster mode exactly
// as main assembles it, each serving its shard on its own wire address. It
// checks the headline behaviours of the distributed deployment: any peer's
// front end answers a search through scatter-gather with the single-node
// answer, killing a peer keeps /search at 200 with a "peer-open"
// degradation once the breaker opens and loses nothing but the reach that
// peer owns, and /healthz exposes the cluster section.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"quepa/internal/cluster"
	"quepa/internal/core"
	"quepa/internal/resilience"
	"quepa/internal/server"
	"quepa/internal/workload"
)

// clusterSpec is the dataset every peer of the acceptance cluster builds.
func clusterSpec() workload.Spec {
	spec := workload.DefaultSpec()
	spec.Artists = 12
	spec.AlbumsPerArtist = 2
	spec.Customers = 20
	return spec
}

// freeAddrs reserves n loopback addresses by listening on port 0 and
// closing again, so each peer can bind the address the others dial.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// startCluster brings up the 3-peer deployment and returns each peer's
// server and the workload peer 0 serves.
func startCluster(t *testing.T) ([]*server.Server, *workload.Built) {
	t.Helper()
	peers := strings.Join(freeAddrs(t, 3), ",")
	servers := make([]*server.Server, 3)
	var built0 *workload.Built
	for shard := range servers {
		built, err := workload.Build(clusterSpec(), workload.Colocated())
		if err != nil {
			t.Fatal(err)
		}
		if shard == 0 {
			built0 = built
		}
		// A short failure run and no cooldown inside the test: a killed
		// peer opens its breaker fast and stays open.
		servers[shard] = mustNew(t, server.Config{Workload: built, Cluster: peers, ShardID: shard, Pool: 2,
			Breaker: resilience.BreakerConfig{FailureThreshold: 2, Cooldown: time.Hour}})
	}
	return servers, built0
}

// answerSections returns a search's original and augmented sections.
func answerSections(t *testing.T, s *server.Server, target string) [2]any {
	t.Helper()
	code, body := do(t, s.Handler(), "GET", target)
	if code != http.StatusOK {
		t.Fatalf("GET %s = %d %v", target, code, body)
	}
	return [2]any{body["original"], body["augmented"]}
}

func TestServerClusterSearchAndPeerDown(t *testing.T) {
	servers, built := startCluster(t)
	s := servers[0]
	query, err := built.Query("transactions", 4)
	if err != nil {
		t.Fatal(err)
	}
	search := "/search?db=transactions&q=" + url.QueryEscape(query) + "&level=2"

	// Any peer takes /search: the three front ends answer the same level-2
	// search identically, and exactly as one node over the same spec does.
	single, err := workload.Build(clusterSpec(), workload.Colocated())
	if err != nil {
		t.Fatal(err)
	}
	want := answerSections(t, mustNew(t, server.Config{Workload: single}), search)
	if aug, _ := want[1].([]any); len(aug) == 0 {
		t.Fatal("single-node search augmented nothing; the comparison would be vacuous")
	}
	for i, peer := range servers {
		if got := answerSections(t, peer, search); !reflect.DeepEqual(got, want) {
			t.Fatalf("peer %d answers\n%v\nsingle node answers\n%v", i, got, want)
		}
	}

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
	} else if row, _ := list[1].(map[string]any); row["owned_ranges"] == float64(0) {
		t.Fatalf("healthz peer row lacks owned ranges: %v", row)
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
	servers[1].Close()
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
		for i := range want.Fields.Len() {
			name, v := want.Fields.At(i)
			if fields[name] != v || len(fields) != want.Fields.Len() {
				t.Fatalf("seq %d: %s answered with fields %v, local replica holds %v", seq, key, fields, want.Fields)
			}
		}
	}
}
