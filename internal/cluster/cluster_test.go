package cluster

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"quepa/internal/aindex"
	"quepa/internal/augment"
	"quepa/internal/core"
	"quepa/internal/explain"
	"quepa/internal/netsim"
	"quepa/internal/rcache"
	"quepa/internal/resilience"
	"quepa/internal/telemetry"
	"quepa/internal/wire"
	"quepa/internal/workload"
)

// clusterSpec is a small deterministic workload; every peer builds the same
// one, which is exactly the deployment model: replicated stores, partitioned
// A' ownership.
func clusterSpec() workload.Spec {
	s := workload.DefaultSpec()
	s.Artists = 30
	s.Customers = 60
	return s
}

// testClientConfig keeps chaos tests fast: one attempt, tight deadline.
func testClientConfig() wire.ClientConfig {
	return wire.ClientConfig{Retry: resilience.RetryPolicy{
		MaxAttempts:    1,
		AttemptTimeout: 2 * time.Second,
	}}
}

// testCluster is an in-process multi-peer deployment: every peer serves its
// shard node over a real wire listener, and a coordinator on shard 0 routes
// across them.
type testCluster struct {
	ring  *Ring
	ref   *workload.Built // peer 0's build doubles as the single-node reference
	nodes []*Node
	addrs []string
	srvs  []*wire.Server
	coord *Coordinator
}

// startCluster brings up n peers. Peers beyond the first may be wrapped by
// the caller before serving via the wrap hook (chaos tests inject faults
// there); a nil wrap serves nodes bare.
func startCluster(t *testing.T, n int, wrap func(shard int, node *Node) core.Store) *testCluster {
	t.Helper()
	ring, err := NewRing(n, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{ring: ring}
	for shard := 0; shard < n; shard++ {
		built, err := workload.Build(clusterSpec(), workload.Colocated())
		if err != nil {
			t.Fatal(err)
		}
		if shard == 0 {
			tc.ref = built
		}
		idx, err := BuildShard(built.Index, ring, shard)
		if err != nil {
			t.Fatal(err)
		}
		node := NewNode(shard, idx, built.Poly)
		tc.nodes = append(tc.nodes, node)
		var served core.Store = node
		if wrap != nil {
			if w := wrap(shard, node); w != nil {
				served = w
			}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := wire.ServeOn(served, ln)
		t.Cleanup(func() { srv.Close() })
		tc.srvs = append(tc.srvs, srv)
		tc.addrs = append(tc.addrs, srv.Addr())
	}
	tc.coord, err = NewCoordinator(Config{
		Ring:    ring,
		Peers:   tc.addrs,
		Self:    0,
		Node:    tc.nodes[0],
		Breaker: resilience.BreakerConfig{FailureThreshold: 2, Cooldown: time.Hour},
		Client:  testClientConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tc.coord.Close)
	return tc
}

// newCoordinator builds an extra coordinator over the same topology — the
// cached and cold variants the equivalence tests compare against each other.
func (tc *testCluster) newCoordinator(t *testing.T, mod func(*Config)) *Coordinator {
	t.Helper()
	cfg := Config{
		Ring:    tc.ring,
		Peers:   tc.addrs,
		Self:    0,
		Node:    tc.nodes[0],
		Breaker: resilience.BreakerConfig{FailureThreshold: 2, Cooldown: time.Hour},
		Client:  testClientConfig(),
	}
	if mod != nil {
		mod(&cfg)
	}
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	return coord
}

// sampleOrigins picks deterministic traversal starting points from the
// asserted p-relations.
func sampleOrigins(b *workload.Built, n int) []core.GlobalKey {
	seen := map[core.GlobalKey]bool{}
	var out []core.GlobalKey
	for _, r := range b.Relations() {
		for _, gk := range []core.GlobalKey{r.From, r.To} {
			if len(out) >= n {
				return out
			}
			if !seen[gk] {
				seen[gk] = true
				out = append(out, gk)
			}
		}
	}
	return out
}

// referenceScatter is the per-origin traversal ReachScatterMany generalises,
// kept as the oracle the engine is tested against: one origin, one frontier,
// each hop expanded shard by shard straight on the nodes — no wire, no
// segments, no cache, no concurrency — and merged behind a barrier.
func referenceScatter(t *testing.T, tc *testCluster, origin core.GlobalKey, level int) ([]aindex.Hit, aindex.ReachStats) {
	t.Helper()
	var stats aindex.ReachStats
	best := map[core.GlobalKey]aindex.Hit{origin: {Key: origin, Prob: 1}}
	frontier := map[core.GlobalKey]float64{origin: 1}
	for hop := 1; hop <= level+1 && len(frontier) > 0; hop++ {
		next := map[core.GlobalKey]float64{}
		for k, p := range frontier {
			hits, _, info, err := tc.nodes[tc.ring.Owner(k)].ExpandFrontier(context.Background(), []string{k.String()}, []float64{p}, nil)
			if err != nil {
				t.Fatal(err)
			}
			stats.Nodes += info.Nodes
			stats.Edges += info.Edges
			for _, h := range hits {
				gk := core.MustParseGlobalKey(h.Key)
				old, seen := best[gk]
				if seen && h.Prob <= old.Prob {
					continue
				}
				dist := hop
				if seen {
					dist = old.Dist
				}
				best[gk] = aindex.Hit{Key: gk, Prob: h.Prob, Dist: dist}
				next[gk] = max(next[gk], h.Prob)
			}
		}
		frontier = next
	}
	delete(best, origin)
	var out []aindex.Hit
	for _, h := range best {
		out = append(out, h)
	}
	aindex.SortHits(out)
	return out, stats
}

// sameHits compares two hit lists bitwise, nil and empty alike.
func sameHits(a, b []aindex.Hit) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}

// counterDelta reads how far a telemetry counter moved across fn.
func counterDelta(c interface{ Value() uint64 }, fn func()) uint64 {
	before := c.Value()
	fn()
	return c.Value() - before
}

// TestClusterReachEquivalence: the tentpole invariant — one many-origin
// scatter over 1, 2 and 3 wire-served peers returns, for every origin,
// exactly the hits, probabilities and distances of the per-origin reference
// traversal and of the single-node index, with no degradations, at levels
// 0–3. The origin list is built to hurt: consecutive entries are the two
// ends of one p-relation, so they sit in the same A' island and their
// frontiers overlap (a merge that mixed origins would leak probabilities
// between them), and the first origin appears twice. Cold, the summed
// traversal stats equal the single-node traversals' sum; the leg count
// stays within (level+1) × peers however many origins there are; and the
// one-origin call and the cached coordinator (fill, then hit) agree.
func TestClusterReachEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, peers := range []int{1, 2, 3} {
		tc := startCluster(t, peers, nil)
		rc := rcache.New(1024)
		cached := tc.newCoordinator(t, func(c *Config) { c.Rcache = rc })
		distinct := sampleOrigins(tc.ref, 16)
		origins := append(append([]core.GlobalKey(nil), distinct...), distinct[0])
		overlap := false
		for _, h := range tc.ref.Index.Reach(origins[0], 1) {
			overlap = overlap || h.Key == origins[1]
		}
		if !overlap {
			t.Fatalf("%v and %v do not share an island; the overlap case is untested", origins[0], origins[1])
		}
		if got, stats, degs := tc.coord.ReachScatterMany(ctx, nil, 2); len(got) != 0 || stats != (aindex.ReachStats{}) || degs != nil {
			t.Fatalf("zero origins = %v, %+v, %v", got, stats, degs)
		}
		for level := 0; level <= 3; level++ {
			var (
				got   [][]aindex.Hit
				stats aindex.ReachStats
				degs  []augment.Degradation
			)
			legs := counterDelta(scatterCalls, func() {
				got, stats, degs = tc.coord.ReachScatterMany(ctx, origins, level)
			})
			if len(degs) != 0 || len(got) != len(origins) {
				t.Fatalf("%d peers level %d: %d results, degradations %v", peers, level, len(got), degs)
			}
			if bound := uint64((level + 1) * peers); legs > bound {
				t.Errorf("%d peers level %d: %d legs for %d origins, bound %d", peers, level, legs, len(origins), bound)
			}
			fill, _, _ := cached.ReachScatterMany(ctx, origins, level)
			hit, hitStats, _ := cached.ReachScatterMany(ctx, origins, level)
			if hitStats != (aindex.ReachStats{}) {
				t.Errorf("%d peers level %d: a fully cached call reports traversal work %+v", peers, level, hitStats)
			}
			var wantStats aindex.ReachStats
			for i, origin := range origins {
				want, st := tc.ref.Index.ReachWithStats(origin, level)
				if i < len(distinct) { // the duplicate is traversed once
					wantStats.Nodes += st.Nodes
					wantStats.Edges += st.Edges
				}
				ref, _ := referenceScatter(t, tc, origin, level)
				one, _, _ := tc.coord.ReachScatter(ctx, origin, level)
				for name, have := range map[string][]aindex.Hit{
					"reference": ref, "many": got[i], "one": one, "cache-fill": fill[i], "cache-hit": hit[i],
				} {
					if !sameHits(have, want) {
						t.Fatalf("%s, %d peers, %v level %d:\n got %v\nwant %v", name, peers, origin, level, have, want)
					}
				}
			}
			if stats.Nodes != wantStats.Nodes || stats.Edges != wantStats.Edges {
				t.Errorf("%d peers level %d: stats %d/%d, want the single-node sum %d/%d",
					peers, level, stats.Nodes, stats.Edges, wantStats.Nodes, wantStats.Edges)
			}
		}
		if st := rc.Stats(); st.Hits == 0 {
			t.Fatalf("%d peers: result cache never hit: %+v", peers, st)
		}
	}
}

// TestScatterManyShipsOnlyMisses: with half a request's origins already in
// the scatter cache, the traversal ships exactly the frontier keys a request
// of the other half alone would ship, and fills an entry per miss — later
// one-origin calls are served from the entries the many-origin call wrote,
// without a single leg.
func TestScatterManyShipsOnlyMisses(t *testing.T) {
	tc := startCluster(t, 3, nil)
	tc.coord.SetResultCache(rcache.New(1024))
	cold := tc.newCoordinator(t, nil)
	ctx := context.Background()
	origins := sampleOrigins(tc.ref, 16)
	var misses []core.GlobalKey
	for i, origin := range origins {
		if i%2 == 0 {
			tc.coord.ReachScatter(ctx, origin, 2)
		} else {
			misses = append(misses, origin)
		}
	}
	want := counterDelta(scatterKeys, func() { cold.ReachScatterMany(ctx, misses, 2) })
	var got [][]aindex.Hit
	shipped := counterDelta(scatterKeys, func() { got, _, _ = tc.coord.ReachScatterMany(ctx, origins, 2) })
	if shipped != want || want == 0 {
		t.Errorf("half-cached request shipped %d frontier keys, its misses alone ship %d", shipped, want)
	}
	for i, origin := range origins {
		if !sameHits(got[i], tc.ref.Index.Reach(origin, 2)) {
			t.Fatalf("%v: half-cached answer diverges from reference", origin)
		}
	}
	legs := counterDelta(scatterCalls, func() {
		for _, origin := range misses {
			if hits, _, _ := tc.coord.ReachScatter(ctx, origin, 2); !sameHits(hits, tc.ref.Index.Reach(origin, 2)) {
				t.Fatalf("%v: entry filled by the many-origin call diverges from reference", origin)
			}
		}
	})
	if legs != 0 {
		t.Errorf("one-origin calls after a many-origin fill cost %d legs, want 0", legs)
	}
}

// TestScatterManyUnderMutationAndRebalance hammers the many-origin path from
// several goroutines while the index every peer serves is mutated and the
// coordinator's topology is swapped live — the ring reseeded, the peers
// reordered, never a peer dropped (SetTopology closes a departed peer's
// client under in-flight legs, which degrades them by design). Every peer
// holds the full index, so any ring routes to a correct answer, and the
// inserted relations join keys no sampled origin reaches: whatever
// interleaving the scheduler picks, every answer must equal the reference
// and no leg may degrade. Run under
// -race this is also the engine's data-race check.
func TestScatterManyUnderMutationAndRebalance(t *testing.T) {
	tc := startCluster(t, 3, nil)
	for _, n := range tc.nodes {
		n.index.Store(tc.ref.Index)
	}
	tc.coord.SetResultCache(rcache.New(1024))
	origins := sampleOrigins(tc.ref, 16)
	want := make([][]aindex.Hit, len(origins))
	for i, origin := range origins {
		want[i] = tc.ref.Index.Reach(origin, 2)
	}
	reseeded, err := NewRing(3, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	topologies := []struct {
		ring  *Ring
		addrs []string
	}{{reseeded, tc.addrs}, {tc.ring, []string{tc.addrs[0], tc.addrs[2], tc.addrs[1]}}, {tc.ring, tc.addrs}}
	// Reader 0 mutates the index before each of its traversals, reader 1
	// swaps the topology before each of its own; readers 2 and 3 only read.
	// The churn is paced by the rounds, so it overlaps the other readers'
	// traversals without starving them.
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for round := 0; round < 25; round++ {
				switch r {
				case 0:
					pad := core.NewIdentity(core.NewGlobalKey("zzz", "pad", fmt.Sprint("a", round)), core.NewGlobalKey("zzz", "pad", fmt.Sprint("b", round)), 0.5)
					if err := tc.ref.Index.InsertRaw(pad); err != nil {
						t.Error(err)
						return
					}
				case 1:
					topo := topologies[round%len(topologies)]
					if err := tc.coord.SetTopology(topo.ring, topo.addrs); err != nil {
						t.Error(err)
						return
					}
				}
				got, _, degs := tc.coord.ReachScatterMany(context.Background(), origins, 2)
				if len(degs) != 0 {
					t.Errorf("round %d: degradations %v", round, degs)
					return
				}
				for i := range origins {
					if !sameHits(got[i], want[i]) {
						t.Errorf("round %d, %v: answer diverges from reference", round, origins[i])
						return
					}
				}
			}
		}()
	}
	readers.Wait()
}

// TestScatterManyPeerDown: with one peer failing every request, a
// many-origin traversal still answers — every origin's hits a subset of the
// reference (whatever was reachable without the dead shard), the peer named
// once in the degradations however many origins lost keys to it, reason
// "peer-open" once its breaker trips — and nothing of the degraded
// traversal is memoized.
func TestScatterManyPeerDown(t *testing.T) {
	const down = 2
	tc := startCluster(t, 3, func(shard int, node *Node) core.Store {
		if shard != down {
			return nil
		}
		return netsim.NewChaosNode(node, netsim.FaultPlan{Down: []netsim.Window{{From: 1}}}, func(time.Duration) {})
	})
	rc := rcache.New(1024)
	tc.coord.SetResultCache(rc)
	ctx := context.Background()
	origins := sampleOrigins(tc.ref, 16)
	sawOpen, lost := false, false
	for round := 0; round < 4; round++ {
		got, _, degs := tc.coord.ReachScatterMany(ctx, origins, 2)
		if len(degs) != 1 || degs[0].Store != PeerName(down) || !strings.HasPrefix(degs[0].Reason, "peer-") {
			t.Fatalf("round %d: degradations %+v, want one for %s", round, degs, PeerName(down))
		}
		sawOpen = sawOpen || degs[0].Reason == "peer-open"
		for i, origin := range origins {
			ref := map[core.GlobalKey]bool{}
			for _, h := range tc.ref.Index.Reach(origin, 2) {
				ref[h.Key] = true
			}
			for _, h := range got[i] {
				if !ref[h.Key] {
					t.Fatalf("round %d, %v: degraded answer holds %v, which the reference does not reach", round, origin, h.Key)
				}
			}
			lost = lost || len(got[i]) < len(ref)
		}
	}
	if !sawOpen {
		t.Error("breaker never opened: no peer-open degradation observed")
	}
	if !lost {
		t.Error("no origin lost a key to the dead shard; the subset property is untested")
	}
	if rc.Len() != 0 {
		t.Errorf("%d entries memoized from degraded traversals", rc.Len())
	}
}

// TestScatterCacheInvalidatesOnLocalMutation: a local index mutation bumps
// the epoch, so every cached scatter result stops being served — observed
// through the epoch-mismatch counter — and post-mutation answers still match
// the reference. The inserted relation joins two brand-new keys unreachable
// from any sampled origin, so the expected answers are unchanged while the
// epoch moves.
func TestScatterCacheInvalidatesOnLocalMutation(t *testing.T) {
	tc := startCluster(t, 2, nil)
	rc := rcache.New(1024)
	tc.coord.SetResultCache(rc)
	ctx := context.Background()
	origins := sampleOrigins(tc.ref, 10)
	for _, origin := range origins {
		tc.coord.ReachScatter(ctx, origin, 2)
	}
	if rc.Len() == 0 {
		t.Fatal("warmup stored nothing")
	}
	pad := core.NewIdentity(core.MustParseGlobalKey("zzz.pad.a"), core.MustParseGlobalKey("zzz.pad.b"), 0.5)
	if err := tc.nodes[0].Index().InsertRaw(pad); err != nil {
		t.Fatal(err)
	}
	before := rc.Stats().EpochMismatches
	for _, origin := range origins {
		want := tc.ref.Index.Reach(origin, 2)
		if len(want) == 0 {
			want = nil
		}
		got, _, degs := tc.coord.ReachScatter(ctx, origin, 2)
		if len(degs) != 0 {
			t.Fatalf("%v: degradations %v", origin, degs)
		}
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: post-mutation result diverges from reference", origin)
		}
	}
	if after := rc.Stats().EpochMismatches; after <= before {
		t.Fatalf("no epoch mismatches recorded after mutation (before %d, after %d)", before, after)
	}
}

// TestClusterPeerDownDegradesPeerOpen: a peer failing every request trips
// its circuit breaker; once open, scatter legs are rejected fast and the
// traversal reports the peer as degraded with reason "peer-open" instead of
// failing — the cluster acceptance behaviour.
func TestClusterPeerDownDegradesPeerOpen(t *testing.T) {
	const down = 2
	tc := startCluster(t, 3, func(shard int, node *Node) core.Store {
		if shard != down {
			return nil
		}
		return netsim.NewChaosNode(node, netsim.FaultPlan{Down: []netsim.Window{{From: 1}}}, func(time.Duration) {})
	})
	ctx := context.Background()
	origins := sampleOrigins(tc.ref, 30)
	sawOpen := false
	for _, origin := range origins {
		hits, _, degs := tc.coord.ReachScatter(ctx, origin, 2)
		for _, d := range degs {
			if d.Store != PeerName(down) {
				t.Fatalf("unexpected degraded store %+v", d)
			}
			if !strings.HasPrefix(d.Reason, "peer-") {
				t.Fatalf("degradation reason %q not peer-classified", d.Reason)
			}
			if d.Reason == "peer-open" {
				sawOpen = true
			}
		}
		_ = hits // healthy shards' results still come back; no error path exists
	}
	if !sawOpen {
		t.Fatal("breaker never opened: no peer-open degradation observed")
	}
	if !tc.coord.AnyPeerOpen() {
		t.Error("AnyPeerOpen is false with a burning peer")
	}
	st := tc.coord.Status(false)
	var found *resilience.BreakerStatus
	for _, ps := range st.PeerList {
		if ps.Shard == down {
			found = ps.Breaker
		}
	}
	if found == nil || found.State != "open" {
		t.Errorf("status does not show peer-%d open: %+v", down, found)
	}
}

// TestClusterAugmenterPeerOpen: the full search-path behaviour — an
// augmenter wired to the scatter coordinator over a cluster with one dead
// peer answers successfully and reports "peer-open" in its degradations,
// naming only the dead peer: objects come from the local replica.
func TestClusterAugmenterPeerOpen(t *testing.T) {
	const down = 1
	tc := startCluster(t, 2, func(shard int, node *Node) core.Store {
		if shard != down {
			return nil
		}
		return netsim.NewChaosNode(node, netsim.FaultPlan{Down: []netsim.Window{{From: 1}}}, func(time.Duration) {})
	})
	aug := augment.New(tc.ref.Poly, tc.nodes[0].Index(), augment.Config{})
	aug.SetReacher(tc.coord)
	ctx := context.Background()
	origins := sampleOrigins(tc.ref, 20)
	sawOpen := false
	for _, gk := range origins {
		obj, err := tc.ref.Poly.Fetch(ctx, gk)
		if err != nil {
			continue
		}
		out, degs, err := aug.AugmentObjects(ctx, []core.Object{obj}, 2)
		if err != nil {
			t.Fatalf("augmenting %v: %v", gk, err)
		}
		for _, d := range degs {
			if d.Store != PeerName(down) {
				t.Fatalf("augmenting %v: degradation %+v, want only %s", gk, d, PeerName(down))
			}
			if d.Reason == "peer-open" {
				sawOpen = true
			}
		}
		_ = out
	}
	if !sawOpen {
		t.Fatal("no peer-open degradation surfaced through the augmenter")
	}
}

// TestClusterSlowShardDegrades: a stalled peer is cut off by the client
// deadline and degrades the traversal rather than hanging it.
func TestClusterSlowShardDegrades(t *testing.T) {
	const slow = 1
	tc := startCluster(t, 2, func(shard int, node *Node) core.Store {
		if shard != slow {
			return nil
		}
		return netsim.NewChaosNode(node,
			netsim.FaultPlan{Stall: 500 * time.Millisecond, StallIn: []netsim.Window{{From: 1}}}, nil)
	})
	tc.coord.ccfg.Retry.AttemptTimeout = 100 * time.Millisecond
	ctx := context.Background()
	deadline := time.Now().Add(30 * time.Second)
	for _, origin := range sampleOrigins(tc.ref, 10) {
		if time.Now().After(deadline) {
			t.Fatal("slow-shard traversals did not degrade in time")
		}
		_, _, degs := tc.coord.ReachScatter(ctx, origin, 2)
		for _, d := range degs {
			if d.Store == PeerName(slow) && strings.HasPrefix(d.Reason, "peer-") {
				return // stalled shard degraded; query survived
			}
		}
	}
	t.Fatal("stalled peer never degraded a traversal")
}

// TestClusterSnapshotBootstrap: the snapshot wire op round-trips a shard —
// a fresh node installing a peer's epoch-stamped checkpoint answers exactly
// like the original.
func TestClusterSnapshotBootstrap(t *testing.T) {
	tc := startCluster(t, 1, nil)
	ctx := context.Background()
	data, epoch, err := tc.coord.FetchPeerSnapshot(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewNode(0, aindex.New(), tc.ref.Poly)
	got, err := fresh.InstallSnapshot(data, tc.ring)
	if err != nil {
		t.Fatal(err)
	}
	if got != epoch {
		t.Errorf("installed epoch %d, fetched %d", got, epoch)
	}
	for _, origin := range sampleOrigins(tc.ref, 10) {
		want := tc.nodes[0].Index().Reach(origin, 2)
		have := fresh.Index().Reach(origin, 2)
		if len(want) == 0 {
			want = nil
		}
		if len(have) == 0 {
			have = nil
		}
		if !reflect.DeepEqual(have, want) {
			t.Fatalf("%v: bootstrapped shard diverges from source", origin)
		}
	}
}

// TestClusterRebalanceJoin: growing a live 2-peer cluster to 3 — the joiner
// merges the members' snapshots under the new ring, the coordinator swaps
// topology, and scatter-gather answers keep matching the single-node
// reference with no degradations.
func TestClusterRebalanceJoin(t *testing.T) {
	tc := startCluster(t, 2, nil)
	ctx := context.Background()
	ring3, err := NewRing(3, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	var snaps [][]byte
	for shard := 0; shard < 2; shard++ {
		data, _, err := tc.coord.FetchPeerSnapshot(ctx, shard)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, data)
	}
	joiner := NewNode(2, aindex.New(), tc.ref.Poly)
	if err := joiner.MergeSnapshots(snaps, ring3); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.ServeOn(joiner, ln)
	t.Cleanup(func() { srv.Close() })
	oldVersion := tc.coord.Status(false).RingVersion
	if err := tc.coord.SetTopology(ring3, append(append([]string(nil), tc.addrs...), srv.Addr())); err != nil {
		t.Fatal(err)
	}
	st := tc.coord.Status(true)
	if st.RingVersion == oldVersion || st.Peers != 3 || len(st.PeerList) != 3 {
		t.Fatalf("topology swap not visible in status: %+v", st)
	}
	for _, ps := range st.PeerList {
		if ps.OwnedRanges == 0 || len(ps.Ranges) != ps.OwnedRanges {
			t.Fatalf("peer %d owns no ranges after rebalance: %+v", ps.Shard, ps)
		}
	}
	for _, origin := range sampleOrigins(tc.ref, 20) {
		for level := 0; level <= 2; level++ {
			want, _ := tc.ref.Index.ReachWithStats(origin, level)
			got, _, degs := tc.coord.ReachScatter(ctx, origin, level)
			if len(degs) != 0 {
				t.Fatalf("post-rebalance degradations: %v", degs)
			}
			if len(want) == 0 {
				want = nil
			}
			if len(got) == 0 {
				got = nil
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("post-rebalance %v level %d diverges from reference", origin, level)
			}
		}
	}
}

// TestRebalanceInvalidatesReachCache: the scatter cache keys carry the ring
// version, so a live 2→3 SetTopology rebalance orphans every warm entry —
// each post-rebalance probe lands on the old ring's fingerprint, records an
// epoch mismatch, and recomputes against the new topology instead of serving
// a stale routing. No flush call is involved; coherence is purely the key.
func TestRebalanceInvalidatesReachCache(t *testing.T) {
	tc := startCluster(t, 2, nil)
	rc := rcache.New(1024)
	tc.coord.SetResultCache(rc)
	ctx := context.Background()
	origins := sampleOrigins(tc.ref, 10)
	for _, origin := range origins {
		if _, _, degs := tc.coord.ReachScatter(ctx, origin, 2); len(degs) != 0 {
			t.Fatalf("warmup %v: degradations %v", origin, degs)
		}
	}
	if rc.Len() == 0 {
		t.Fatal("warmup stored nothing")
	}
	ring3, err := NewRing(3, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	var snaps [][]byte
	for shard := 0; shard < 2; shard++ {
		data, _, err := tc.coord.FetchPeerSnapshot(ctx, shard)
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, data)
	}
	joiner := NewNode(2, aindex.New(), tc.ref.Poly)
	if err := joiner.MergeSnapshots(snaps, ring3); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.ServeOn(joiner, ln)
	t.Cleanup(func() { srv.Close() })
	if err := tc.coord.SetTopology(ring3, append(append([]string(nil), tc.addrs...), srv.Addr())); err != nil {
		t.Fatal(err)
	}
	before := rc.Stats().EpochMismatches
	for _, origin := range origins {
		want := tc.ref.Index.Reach(origin, 2)
		if len(want) == 0 {
			want = nil
		}
		got, _, degs := tc.coord.ReachScatter(ctx, origin, 2)
		if len(degs) != 0 {
			t.Fatalf("post-rebalance %v: degradations %v", origin, degs)
		}
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("post-rebalance %v served a stale cached result", origin)
		}
	}
	if after := rc.Stats().EpochMismatches; after <= before {
		t.Fatalf("no epoch mismatches recorded across rebalance (before %d, after %d)", before, after)
	}
}

// TestClusterScatterSpansMatchCounter: on a 2-peer cluster every scatter leg
// of a request — the self-owned legs served by the local node included — is
// a cluster.scatter span in the request's trace, so the span count equals
// the request's delta of quepa_cluster_scatter_total.
func TestClusterScatterSpansMatchCounter(t *testing.T) {
	tc := startCluster(t, 2, nil)
	aug := augment.New(tc.ref.Poly, tc.nodes[0].Index(), augment.Config{})
	aug.SetReacher(tc.coord)
	ctx, root := telemetry.StartSpan(context.Background(), "http /search")
	if root == nil {
		t.Fatal("no root span (telemetry disabled?)")
	}
	legs := counterDelta(scatterCalls, func() {
		if _, err := aug.Search(ctx, "transactions", `SELECT * FROM inventory WHERE seq < 4`, 2); err != nil {
			t.Fatal(err)
		}
	})
	root.End()
	spans, self := 0, 0
	var walk func(s telemetry.SpanJSON)
	walk = func(s telemetry.SpanJSON) {
		if s.Name == "cluster.scatter" {
			spans++
			if s.Attrs["shard"] == "0" {
				self++
			}
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(root.JSON())
	if legs == 0 {
		t.Fatal("fixture broken: the search fanned out no scatter legs")
	}
	if uint64(spans) != legs {
		t.Errorf("request fanned out %d scatter legs but its trace has %d cluster.scatter spans", legs, spans)
	}
	if self == 0 {
		t.Error("no cluster.scatter span for a self-owned leg")
	}
}

// TestClusterExplainScatter: the profile derived from a cluster search's
// trace exposes the per-shard fan-out — one ShardFanout row per contacted
// shard, totals counted.
func TestClusterExplainScatter(t *testing.T) {
	tc := startCluster(t, 3, nil)
	aug := augment.New(tc.ref.Poly, tc.nodes[0].Index(), augment.Config{})
	aug.SetReacher(tc.coord)
	for _, gk := range sampleOrigins(tc.ref, 20) {
		obj, err := tc.ref.Poly.Fetch(context.Background(), gk)
		if err != nil {
			continue
		}
		ctx, root := telemetry.StartSpan(context.Background(), "search")
		if _, _, err := aug.AugmentObjects(ctx, []core.Object{obj}, 2); err != nil {
			t.Fatal(err)
		}
		p := explain.FromSpan(root)
		root.End()
		if len(p.Augmentations) != 1 {
			t.Fatalf("profile has %d augmentation traces", len(p.Augmentations))
		}
		sc := p.Augmentations[0].Scatter
		if len(sc) == 0 {
			continue // origin with an empty frontier beyond hop 1
		}
		if p.Totals.ScatterCalls == 0 {
			t.Fatal("scatter rows present but ScatterCalls total is zero")
		}
		for i, f := range sc {
			if f.Peer != PeerName(f.Shard) || f.Calls == 0 {
				t.Fatalf("malformed fanout row %+v", f)
			}
			if i > 0 && sc[i-1].Shard >= f.Shard {
				t.Fatalf("fanout rows not sorted by shard: %+v", sc)
			}
		}
		return // one profiled query with real fan-out is enough
	}
	t.Fatal("no sampled origin produced a scatter fan-out")
}
