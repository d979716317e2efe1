package main

// Cluster mode (-cluster host:port,... -shard-id N): the server becomes one
// peer of a distributed QUEPA deployment. Every peer builds the identical
// workload (the stores are replicated; only A' ownership is partitioned),
// carves its shard of the A' index along the consistent-hash ring, serves it
// to the other peers over the wire protocol, and answers its own HTTP
// traffic through a scatter-gather coordinator: reachability fans out to the
// shard owners, keyed fetches route to them, and a burning peer degrades the
// answer with reason "peer-open" instead of failing it.

import (
	"fmt"
	"log"
	"net"
	"strings"

	"quepa/internal/cluster"
	"quepa/internal/resilience"
	"quepa/internal/wire"
	"quepa/internal/workload"
)

// clusterRuntime bundles the moving parts of one peer's cluster membership.
type clusterRuntime struct {
	coord *cluster.Coordinator
	node  *cluster.Node
	srv   *wire.Server
}

// close tears the peer down: stop serving the shard, drop the peer clients.
func (c *clusterRuntime) close() error {
	c.coord.Close()
	return c.srv.Close()
}

// parsePeers splits the -cluster flag into the per-shard address list.
func parsePeers(s string) ([]string, error) {
	var peers []string
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("cluster: empty peer address in %q", s)
		}
		peers = append(peers, p)
	}
	return peers, nil
}

// setupCluster turns a built workload into one cluster peer: shard the A'
// index, serve the shard node over the wire (on ln when the caller pre-bound
// one — tests do — or on this peer's -cluster address otherwise), build the
// coordinator, and swap the polystore for its ring-routed counterpart so the
// whole augmenter stack fetches by ownership.
func setupCluster(built *workload.Built, peerList string, shardID, vnodes int, seed uint64,
	bcfg resilience.BreakerConfig, pool int, ln net.Listener) (*clusterRuntime, error) {
	peers, err := parsePeers(peerList)
	if err != nil {
		return nil, err
	}
	if shardID < 0 || shardID >= len(peers) {
		return nil, fmt.Errorf("cluster: -shard-id %d outside peer list of %d", shardID, len(peers))
	}
	ring, err := cluster.NewRing(len(peers), vnodes, seed)
	if err != nil {
		return nil, err
	}
	shardIdx, err := cluster.BuildShard(built.Index, ring, shardID)
	if err != nil {
		return nil, err
	}
	node := cluster.NewNode(shardID, shardIdx, built.Poly)
	var srv *wire.Server
	if ln != nil {
		srv = wire.ServeOn(node, ln)
	} else {
		srv, err = wire.Serve(node, peers[shardID])
		if err != nil {
			return nil, err
		}
	}
	coord, err := cluster.NewCoordinator(cluster.Config{
		Ring:    ring,
		Peers:   peers,
		Self:    shardID,
		Node:    node,
		Breaker: bcfg,
		Client:  wire.ClientConfig{Retry: resilience.DefaultRetryPolicy(), PoolSize: pool},
	})
	if err != nil {
		srv.Close()
		return nil, err
	}
	routed, err := cluster.RoutePolystore(built.Poly, coord)
	if err != nil {
		coord.Close()
		srv.Close()
		return nil, err
	}
	built.Poly = routed
	return &clusterRuntime{coord: coord, node: node, srv: srv}, nil
}

// installCluster attaches a cluster runtime to an assembled server: the
// augmenter's reachability goes scatter-gather and the status pages grow
// their cluster sections. Shared with the tests so they run main's wiring.
func (s *server) installCluster(c *clusterRuntime) {
	s.cluster = c.coord
	s.aug.SetReacher(c.coord)
	// One result cache serves both layers: the coordinator memoizes whole
	// scatter traversals against the ring-version+index-epoch fingerprint,
	// and component surgery on the local shard flushes it explicitly.
	c.coord.SetResultCache(s.rcache)
	c.node.Index().SetInvalidationHook(s.rcache.Invalidate)
}

// logClusterUp announces the membership once at startup.
func logClusterUp(c *clusterRuntime) {
	st := c.coord.Status(false)
	log.Printf("quepa-server: cluster shard %d of %d, A' shard %d keys / %d p-relations on %s, ring version %x",
		st.Self, st.Peers, c.node.Index().NodeCount(), c.node.Index().EdgeCount(), c.srv.Addr(), st.RingVersion)
}
