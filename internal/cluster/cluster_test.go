package cluster

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"quepa/internal/aindex"
	"quepa/internal/augment"
	"quepa/internal/core"
	"quepa/internal/explain"
	"quepa/internal/netsim"
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
	ref   *workload.Built  // peer 0's build doubles as the single-node reference
	rels  []core.PRelation // the p-relations peer 0's build asserted
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
		built, rels, err := workload.BuildWithRelations(clusterSpec(), workload.Colocated())
		if err != nil {
			t.Fatal(err)
		}
		if shard == 0 {
			tc.ref, tc.rels = built, rels
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

// newCoordinator builds an extra coordinator over the same topology, its
// config changed by mod (the mutation test gives it a node of its own).
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
func sampleOrigins(rels []core.PRelation, n int) []core.GlobalKey {
	seen := map[core.GlobalKey]bool{}
	var out []core.GlobalKey
	for _, r := range rels {
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

// owned counts the origins each shard owns.
func (tc *testCluster) owned(origins []core.GlobalKey) []int {
	n := make([]int, len(tc.nodes))
	for _, o := range origins {
		n[tc.ring.Owner(o)]++
	}
	return n
}

// TestClusterReachEquivalence: the tentpole invariant — one many-origin
// scatter over 1, 2 and 3 wire-served peers returns, for every origin,
// exactly the hits, probabilities and distances of the single-node index,
// with no degradations, at levels 0–3. The origin list is built to hurt:
// consecutive entries are the two ends of one p-relation, so they sit in
// the same A' island and reach the same keys (a leg that mixed origins
// would leak probabilities between them), and the first origin appears
// twice. The summed traversal stats equal the single-node traversals' sum
// and the leg count stays within one per peer at every level, however many
// origins there are. A repeated pass ships the same legs, traverses again
// (no peer memoizes a reach) and answers the same; so does the one-origin
// call.
func TestClusterReachEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, peers := range []int{1, 2, 3} {
		tc := startCluster(t, peers, nil)
		distinct := sampleOrigins(tc.rels, 16)
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
				got, again        [][]aindex.Hit
				stats, againStats aindex.ReachStats
				degs              []augment.Degradation
			)
			legs := counterDelta(scatterCalls, func() {
				got, stats, degs = tc.coord.ReachScatterMany(ctx, origins, level)
			})
			if len(degs) != 0 || len(got) != len(origins) {
				t.Fatalf("%d peers level %d: %d results, degradations %v", peers, level, len(got), degs)
			}
			if bound := uint64(peers); legs > bound {
				t.Errorf("%d peers level %d: %d legs for %d origins, bound %d", peers, level, legs, len(origins), bound)
			}
			againLegs := counterDelta(scatterCalls, func() {
				again, againStats, _ = tc.coord.ReachScatterMany(ctx, origins, level)
			})
			if againLegs != legs {
				t.Errorf("%d peers level %d: the repeated pass ships %d legs, the first one %d", peers, level, againLegs, legs)
			}
			var wantStats aindex.ReachStats
			for i, origin := range origins {
				want, st := tc.ref.Index.ReachWithStats(origin, level)
				if i < len(distinct) { // the duplicate is traversed once
					wantStats.Nodes += st.Nodes
					wantStats.Edges += st.Edges
				}
				one, _, _ := tc.coord.ReachScatter(ctx, origin, level)
				for name, have := range map[string][]aindex.Hit{
					"many": got[i], "one": one, "again": again[i],
				} {
					if !sameHits(have, want) {
						t.Fatalf("%s, %d peers, %v level %d:\n got %v\nwant %v", name, peers, origin, level, have, want)
					}
				}
			}
			for name, have := range map[string]aindex.ReachStats{"first": stats, "repeated": againStats} {
				if have != wantStats {
					t.Errorf("%d peers level %d: %s pass stats %+v, want the single-node sum %+v", peers, level, name, have, wantStats)
				}
			}
		}
	}
}

// TestClusterOwnerMemoUnderMutation hammers the many-origin path from
// several goroutines while the index every peer serves is mutated. Every
// peer, the coordinator's own node included, serves one shared full index.
// Reader 0 grows the first origin's island by one leaf before each of its
// calls and must read its own write: no owner may serve it the island as it
// was before the insert. A leaf lies on no path between two other keys, so
// every other hit of every answer equals the reference, whatever the
// interleaving, and no leg may degrade. Run under -race this is also the
// engine's data-race check.
func TestClusterOwnerMemoUnderMutation(t *testing.T) {
	full, err := workload.Build(clusterSpec(), workload.Colocated())
	if err != nil {
		t.Fatal(err)
	}
	shared := func(shard int) *Node { return NewNode(shard, full.Index, full.Poly) }
	tc := startCluster(t, 3, func(shard int, _ *Node) core.Store { return shared(shard) })
	coord := tc.newCoordinator(t, func(cfg *Config) { cfg.Node = shared(0) })
	origins := sampleOrigins(tc.rels, 16)
	want := make([][]aindex.Hit, len(origins))
	for i, origin := range origins {
		want[i] = tc.ref.Index.Reach(origin, 2)
	}
	leaf := func(round int) core.GlobalKey { return core.NewGlobalKey("zzz", "leaf", fmt.Sprint(round)) }
	// withoutLeaves drops the inserted leaves from an answer.
	withoutLeaves := func(hits []aindex.Hit) (rest []aindex.Hit, leaves int) {
		for _, h := range hits {
			if h.Key.Database == "zzz" {
				leaves++
			} else {
				rest = append(rest, h)
			}
		}
		return rest, leaves
	}
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for round := 0; round < 25; round++ {
				if r == 0 {
					if err := full.Index.InsertRaw(core.NewMatching(origins[0], leaf(round), 0.5)); err != nil {
						t.Error(err)
						return
					}
				}
				got, _, degs := coord.ReachScatterMany(context.Background(), origins, 2)
				if len(degs) != 0 {
					t.Errorf("round %d: degradations %v", round, degs)
					return
				}
				for i := range origins {
					if rest, _ := withoutLeaves(got[i]); !sameHits(rest, want[i]) {
						t.Errorf("round %d, %v: answer diverges from reference", round, origins[i])
						return
					}
				}
				if _, leaves := withoutLeaves(got[0]); r == 0 && leaves != round+1 {
					t.Errorf("round %d: reader 0 inserted %d leaves but read %d", round, round+1, leaves)
					return
				}
			}
		}()
	}
	readers.Wait()
}

// TestScatterManyPeerDown: with one peer failing every request, a
// many-origin scatter still answers, and the failure is scoped to exactly
// the origins the dead peer owns. An origin owned by a live peer gets its
// full single-node answer — even when its island holds keys the dead peer
// owns — and an origin owned by the dead peer gets no hits. The peer is
// named once in the degradations however many origins it owned, with reason
// "peer-open" once its breaker trips.
func TestScatterManyPeerDown(t *testing.T) {
	const down = 2
	tc := startCluster(t, 3, func(shard int, node *Node) core.Store {
		if shard != down {
			return nil
		}
		return netsim.NewChaosNode(node, netsim.FaultPlan{Down: []netsim.Window{{From: 1}}}, func(time.Duration) {})
	})
	ctx := context.Background()
	origins := sampleOrigins(tc.rels, 128)
	deadOwned, straddles := 0, false
	for _, origin := range origins {
		if tc.ring.Owner(origin) == down {
			deadOwned++
			continue
		}
		for _, h := range tc.ref.Index.Reach(origin, 2) {
			straddles = straddles || tc.ring.Owner(h.Key) == down
		}
	}
	if deadOwned == 0 || !straddles {
		t.Fatalf("sample has %d dead-owned origins, live-owned island with a dead-owned key: %v; the failure scope is untested", deadOwned, straddles)
	}
	sawOpen := false
	for round := 0; round < 4; round++ {
		got, _, degs := tc.coord.ReachScatterMany(ctx, origins, 2)
		if len(degs) != 1 || degs[0].Store != PeerName(down) || !strings.HasPrefix(degs[0].Reason, "peer-") {
			t.Fatalf("round %d: degradations %+v, want one for %s", round, degs, PeerName(down))
		}
		sawOpen = sawOpen || degs[0].Reason == "peer-open"
		for i, origin := range origins {
			if tc.ring.Owner(origin) == down {
				if len(got[i]) != 0 {
					t.Fatalf("round %d, %v: owned by the dead peer, answered %v", round, origin, got[i])
				}
				continue
			}
			if want := tc.ref.Index.Reach(origin, 2); !sameHits(got[i], want) {
				t.Fatalf("round %d, %v: owned by a live peer:\n got %v\nwant %v", round, origin, got[i], want)
			}
		}
	}
	if !sawOpen {
		t.Error("breaker never opened: no peer-open degradation observed")
	}
}

// TestClusterOwnerMemoInvalidatesOneIsland: a mutation on one owner's shard
// reaches the next scatter through that owner, across the wire, and changes
// the answers of that island only: an origin of it now reaches the new leaf,
// and every origin outside it answers exactly as before the mutation.
func TestClusterOwnerMemoInvalidatesOneIsland(t *testing.T) {
	tc := startCluster(t, 3, nil)
	ctx := context.Background()
	origins := sampleOrigins(tc.rels, 24)
	before, _, _ := tc.coord.ReachScatterMany(ctx, origins, 2)
	// The mutated island is owned by a remote peer, so its recomputation
	// happens across the wire.
	target, owner := -1, 0
	for i, o := range origins {
		if owner = tc.ring.Owner(o); owner != 0 {
			target = i
			break
		}
	}
	if target < 0 {
		t.Fatal("no sampled origin is owned by a remote peer")
	}
	shard := tc.nodes[owner].Index()
	leaf := core.MustParseGlobalKey("zzz.leaf.a")
	if err := shard.InsertRaw(core.NewMatching(origins[target], leaf, 0.5)); err != nil {
		t.Fatal(err)
	}
	got, _, degs := tc.coord.ReachScatterMany(ctx, origins, 2)
	if len(degs) != 0 {
		t.Fatalf("degradations %v", degs)
	}
	moved := 0
	for i, o := range origins {
		if want := tc.nodes[tc.ring.Owner(o)].Index().Reach(o, 2); !sameHits(got[i], want) {
			t.Fatalf("%v: answer diverges from its owner's shard:\n got %v\nwant %v", o, got[i], want)
		}
		// The mutated island's keys read the mutation's stamp; every other
		// island kept its own.
		if tc.ring.Owner(o) == owner && shard.Stamp(o) == shard.Stamp(origins[target]) {
			moved++
		} else if !sameHits(got[i], before[i]) {
			t.Errorf("%v: outside the mutated island, answer moved:\n got %v\nwas %v", o, got[i], before[i])
		}
	}
	if moved == 0 || !slices.ContainsFunc(got[target], func(h aindex.Hit) bool { return h.Key == leaf }) {
		t.Fatalf("%v: answer misses the inserted leaf: %v", origins[target], got[target])
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
	origins := sampleOrigins(tc.rels, 30)
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
	st := tc.coord.Status()
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
	origins := sampleOrigins(tc.rels, 20)
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
	for _, origin := range sampleOrigins(tc.rels, 10) {
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
	for _, gk := range sampleOrigins(tc.rels, 20) {
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
			continue // origin served without a leg
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
