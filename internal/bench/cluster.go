package bench

// The node-count campaign: scatter-gather augmentation over 1, 2 and 4
// wire-served peers, each behind a netsim capacity gate, so the figure shows
// the real win of partitioning A' — N peers serve N× the frontier
// expansions per second once a single peer's executor pool saturates.
// Answers are verified against the single-node reference index before any
// timing: a cluster that scales by being wrong is a bug, not a result.

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"quepa/internal/aindex"
	"quepa/internal/cluster"
	"quepa/internal/core"
	"quepa/internal/netsim"
	"quepa/internal/resilience"
	"quepa/internal/wire"
	"quepa/internal/workload"
)

// clusterPeerCounts is the node-count sweep.
func (o Options) clusterPeerCounts() []int {
	if o.Quick {
		return []int{1, 2}
	}
	return []int{1, 2, 4}
}

// clusterOps is how many scatter traversals one sweep point executes.
func (o Options) clusterOps() int {
	if o.Quick {
		return 24
	}
	return 400
}

// clusterProfile is the per-peer cost model: a small network leg plus a
// service slot, so one peer saturates at Capacity/Service expansions per
// second and the sweep exposes the scaling.
func (o Options) clusterProfile() netsim.PeerProfile {
	if o.Quick {
		return netsim.PeerProfile{Capacity: 2, Service: time.Millisecond}
	}
	return netsim.PeerProfile{
		Profile:  netsim.Profile{RoundTrip: 200 * time.Microsecond},
		Capacity: 4,
		Service:  2 * time.Millisecond,
	}
}

// FigCluster measures augmented-search scatter throughput as a function of
// peer count. Every peer count serves the identical workload; LoopbackSelf
// makes the coordinator pay the wire and capacity cost for its own shard
// too, so the single-peer point is a fair baseline and not a free local
// call.
func FigCluster(o Options) ([]Point, error) {
	o = o.withDefaults()
	built, err := workload.Build(o.spec(0), workload.Colocated())
	if err != nil {
		return nil, err
	}
	origins := clusterOrigins(built, 32)
	if len(origins) == 0 {
		return nil, fmt.Errorf("bench: cluster workload has no origins")
	}
	var points []Point
	for _, peers := range o.clusterPeerCounts() {
		elapsed, err := runClusterSweep(o, built, origins, peers)
		if err != nil {
			return nil, err
		}
		points = append(points, Point{
			Figure: "cluster",
			Series: "SCATTER",
			XLabel: "peers",
			X:      float64(peers),
			Millis: ms(elapsed),
			Size:   o.clusterOps(),
		})
	}
	return points, nil
}

// runClusterSweep brings up one topology, verifies answer equivalence, then
// times clusterOps() traversals over concurrent workers.
func runClusterSweep(o Options, built *workload.Built, origins []core.GlobalKey, peers int) (time.Duration, error) {
	ring, err := cluster.NewRing(peers, 16, 0)
	if err != nil {
		return 0, err
	}
	var servers []*wire.Server
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	addrs := make([]string, peers)
	for shard := 0; shard < peers; shard++ {
		idx, err := cluster.BuildShard(built.Index, ring, shard)
		if err != nil {
			return 0, err
		}
		node := cluster.NewNode(shard, idx, built.Poly)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		srv := wire.ServeOn(netsim.NewChaosNode(node, o.clusterProfile(), netsim.FaultPlan{}, nil), ln)
		servers = append(servers, srv)
		addrs[shard] = srv.Addr()
	}
	coord, err := cluster.NewCoordinator(cluster.Config{
		Ring:         ring,
		Peers:        addrs,
		Self:         0,
		LoopbackSelf: true,
		Client: wire.ClientConfig{
			Retry: resilience.RetryPolicy{MaxAttempts: 2, AttemptTimeout: 10 * time.Second},
		},
	})
	if err != nil {
		return 0, err
	}
	defer coord.Close()

	ctx := context.Background()
	// Correctness first: every origin's distributed answer must equal the
	// single-node reference exactly.
	for _, origin := range origins {
		want := built.Index.Reach(origin, 1)
		got, _, degs := coord.ReachScatter(ctx, origin, 1)
		if len(degs) != 0 {
			return 0, fmt.Errorf("bench: %d peers: degraded traversal: %v", peers, degs)
		}
		if !sameHits(got, want) {
			return 0, fmt.Errorf("bench: %d peers: %v diverges from single-node answer", peers, origin)
		}
	}

	ops := o.clusterOps()
	workers := 8
	if workers > ops {
		workers = ops
	}
	var (
		wg    sync.WaitGroup
		seq   = make(chan int, ops)
		start = time.Now()
	)
	for i := 0; i < ops; i++ {
		seq <- i
	}
	close(seq)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range seq {
				_, _, degs := coord.ReachScatter(ctx, origins[i%len(origins)], 1)
				if len(degs) != 0 {
					errs[w] = fmt.Errorf("bench: degraded traversal under load: %v", degs)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// clusterOrigins samples traversal starting points from the asserted
// p-relations.
func clusterOrigins(b *workload.Built, n int) []core.GlobalKey {
	seen := map[core.GlobalKey]bool{}
	var out []core.GlobalKey
	for _, r := range b.Relations() {
		if len(out) >= n {
			break
		}
		if !seen[r.From] {
			seen[r.From] = true
			out = append(out, r.From)
		}
	}
	return out
}

// sameHits compares hit slices treating nil and empty as equal.
func sameHits(a, b []aindex.Hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
