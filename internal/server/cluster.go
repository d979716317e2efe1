package server

// Cluster mode (Config.Cluster host:port,... and Config.ShardID): the server
// becomes one peer of a distributed QUEPA deployment. Every peer builds the
// identical workload (the stores are replicated; only A' ownership is
// partitioned), carves its shard of the A' index — every island holding a
// key this peer owns on the consistent-hash ring — serves it to the other
// peers over the wire protocol, and answers its own HTTP traffic through a
// scatter coordinator: each origin's reach goes to its owner, keyed reads
// stay on the local replica, and a burning peer degrades the origins it
// owns with reason "peer-open" instead of failing the answer. The ring uses cluster.DefaultVnodes and the default seed, so
// every peer agrees on it by construction.

import (
	"fmt"
	"strings"

	"quepa/internal/cluster"
	"quepa/internal/resilience"
	"quepa/internal/telemetry"
	"quepa/internal/wire"
)

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

// joinCluster turns the workload into one cluster peer: shard the A' index,
// serve the shard node over the wire on this peer's address, and build the
// coordinator.
// Keyed reads keep going to the polystore as built: every peer holds a full
// replica of every store.
func (s *Server) joinCluster(peerList string, shardID, pool int, bcfg resilience.BreakerConfig) error {
	peers, err := parsePeers(peerList)
	if err != nil {
		return err
	}
	if shardID < 0 || shardID >= len(peers) {
		return fmt.Errorf("cluster: -shard-id %d outside peer list of %d", shardID, len(peers))
	}
	ring, err := cluster.NewRing(len(peers), cluster.DefaultVnodes, 0)
	if err != nil {
		return err
	}
	shard, err := cluster.BuildShard(s.built.Index, ring, shardID)
	if err != nil {
		return err
	}
	node := cluster.NewNode(shardID, shard, s.built.Poly)
	srv, err := wire.Serve(node, peers[shardID])
	if err != nil {
		return err
	}
	s.closers = append(s.closers, srv.Close)
	coord, err := cluster.NewCoordinator(cluster.Config{
		Ring:    ring,
		Peers:   peers,
		Self:    shardID,
		Node:    node,
		Breaker: bcfg,
		Client:  wire.ClientConfig{Retry: resilience.DefaultRetryPolicy(), PoolSize: pool},
	})
	if err != nil {
		return err
	}
	s.closers = append(s.closers, func() error { coord.Close(); return nil })
	s.cluster = coord
	st := coord.Status()
	telemetry.Log(telemetry.LogInfo, "cluster shard",
		telemetry.F("shard", st.Self),
		telemetry.F("peers", st.Peers),
		telemetry.F("index_keys", shard.NodeCount()),
		telemetry.F("index_edges", shard.EdgeCount()),
		telemetry.F("index_edges_total", s.built.Index.EdgeCount()),
		telemetry.F("addr", srv.Addr()),
		telemetry.F("ring_version", fmt.Sprintf("%x", st.RingVersion)))
	return nil
}
