// Command quepa-loadgen generates the Polyphony polystore of the paper's
// evaluation (Section VII-A) and either prints its statistics or serves
// every database over the TCP wire protocol, turning the current machine
// into one node of a distributed polystore.
//
// Usage:
//
//	quepa-loadgen -replicas 2 -scale 1          # print dataset statistics
//	quepa-loadgen -serve 127.0.0.1:0            # serve all stores over TCP, any port each
//	quepa-loadgen -serve 127.0.0.1:7000         # ... on consecutive ports 7000, 7001, ...
//
// The -fault-* flags wrap every served store in a deterministic chaos layer
// (internal/netsim): seeded random errors, down windows, and stall windows,
// keyed off each store's request sequence. Serving a faulty polystore is how
// the retry/breaker/degradation stack is exercised against a "real" remote:
//
//	quepa-loadgen -serve 127.0.0.1:0 -fault-rate 0.2 -fault-seed 7
//	quepa-loadgen -serve 127.0.0.1:0 -fault-down 100:200 -fault-stall 50ms -fault-stall-in 1:50
//
// With -cluster the process serves one shard of a distributed QUEPA cluster
// instead: it builds the workload, carves this peer's slice of the A' index
// along the consistent-hash ring, and serves the shard node (meta and reach)
// on its own -cluster address — the
// peer a quepa-server coordinator scatters to. The -fault-* flags apply to
// the served shard, so multi-node chaos runs can be driven from real
// processes:
//
//	quepa-loadgen -cluster 127.0.0.1:7101,127.0.0.1:7102 -shard-id 1
//	quepa-loadgen -cluster ... -shard-id 1 -fault-down 1:
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"quepa/internal/cluster"
	"quepa/internal/core"
	"quepa/internal/middleware"
	"quepa/internal/netsim"
	"quepa/internal/wire"
	"quepa/internal/workload"
)

func main() {
	replicas := flag.Int("replicas", 0, "replication rounds (0 -> 4 databases, 3 -> 13)")
	scale := flag.Float64("scale", 1, "workload scale factor")
	seed := flag.Int64("seed", 1, "generation seed")
	serve := flag.String("serve", "",
		"serve every database over TCP from this base address: consecutive ports from a non-zero port, any free port per store from port 0 (e.g. 127.0.0.1:0)")
	faultRate := flag.Float64("fault-rate", 0, "probability that any served request fails (deterministic by -fault-seed)")
	faultSeed := flag.Uint64("fault-seed", 1, "seed for the fault draws")
	faultDown := flag.String("fault-down", "", "down windows as request ranges from:to[,from:to...] (to exclusive, empty to = forever)")
	faultStallIn := flag.String("fault-stall-in", "", "stall windows as request ranges from:to[,from:to...]")
	faultStall := flag.Duration("fault-stall", 0, "added latency inside -fault-stall-in windows")
	clusterPeers := flag.String("cluster", "",
		"serve one cluster shard instead: comma-separated wire addresses of every peer ordered by shard id")
	shardID := flag.Int("shard-id", 0, "this peer's shard id: the index of its own address in -cluster")
	flag.Parse()

	down, err := netsim.ParseWindows(*faultDown)
	if err != nil {
		log.Fatal(err)
	}
	stallIn, err := netsim.ParseWindows(*faultStallIn)
	if err != nil {
		log.Fatal(err)
	}
	plan := netsim.FaultPlan{
		Seed:      *faultSeed,
		ErrorRate: *faultRate,
		Down:      down,
		StallIn:   stallIn,
		Stall:     *faultStall,
	}

	spec := workload.DefaultSpec().Scale(*scale)
	spec.ReplicaRounds = *replicas
	spec.Seed = *seed
	built, err := workload.Build(spec, workload.Colocated())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Polyphony polystore (seed %d, scale %g):\n", *seed, *scale)
	fmt.Printf("  %-16s %d\n", "databases:", built.Poly.Size())
	for _, name := range built.Databases() {
		s, err := built.Poly.Database(name)
		if err != nil {
			log.Fatal(err)
		}
		objs, err := middleware.ScanAll(context.Background(), s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("    %-20s %-11s %6d objects in %v\n", name, s.Kind(), len(objs), s.Collections())
	}
	fmt.Printf("  %-16s %d global keys, %d p-relations\n", "A' index:", built.Index.NodeCount(), built.Index.EdgeCount())

	if *clusterPeers != "" {
		serveClusterPeer(built, *clusterPeers, *shardID, plan)
		return
	}

	if *serve == "" {
		return
	}

	addrs, err := serveAddrs(*serve, len(built.Databases()))
	if err != nil {
		log.Fatal(err)
	}
	if plan.Active() {
		fmt.Printf("serving with injected faults: %s\n", plan)
	}
	var servers []*wire.Server
	for i, name := range built.Databases() {
		s, err := built.Poly.Database(name)
		if err != nil {
			log.Fatal(err)
		}
		var store core.Store = s
		if plan.Active() {
			// Each store gets its own chaos wrapper (its own request
			// sequence), all driven by the same plan and seed.
			store = netsim.NewChaos(s, plan, time.Sleep)
		}
		srv, err := wire.Serve(store, addrs[i])
		if err != nil {
			log.Fatal(err)
		}
		servers = append(servers, srv)
		fmt.Printf("serving %-20s on %s\n", name, srv.Addr())
	}
	fmt.Println("press Ctrl-C to stop")
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	for _, srv := range servers {
		srv.Close()
	}
}

// serveAddrs derives the listen address of each of n served stores from the
// -serve base address: port 0 asks the kernel for any free port per store,
// a non-zero port p binds the consecutive ports p, p+1, ..., p+n-1.
func serveAddrs(base string, n int) ([]string, error) {
	host, portStr, err := net.SplitHostPort(base)
	if err != nil {
		return nil, fmt.Errorf("quepa-loadgen: -serve %q: %v", base, err)
	}
	first, err := strconv.ParseUint(portStr, 10, 16)
	if err != nil {
		return nil, fmt.Errorf("quepa-loadgen: -serve %q: port must be a number in 0..65535", base)
	}
	port, step := int(first), 1
	if port == 0 {
		step = 0
	} else if last := port + n - 1; last > 65535 {
		return nil, fmt.Errorf("quepa-loadgen: -serve %q: %d stores need ports %d..%d, past 65535", base, n, port, last)
	}
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = net.JoinHostPort(host, strconv.Itoa(port+i*step))
	}
	return addrs, nil
}

// serveClusterPeer serves one shard of a distributed deployment: this peer's
// A' slice plus its databases, on the address -cluster lists for -shard-id.
// The fault plan wraps the node when active, so chaos scenarios run against
// real processes.
func serveClusterPeer(built *workload.Built, peerList string, shardID int, plan netsim.FaultPlan) {
	var peers []string
	for _, p := range strings.Split(peerList, ",") {
		if p = strings.TrimSpace(p); p == "" {
			log.Fatalf("quepa-loadgen: empty peer address in -cluster %q", peerList)
		}
		peers = append(peers, p)
	}
	if shardID < 0 || shardID >= len(peers) {
		log.Fatalf("quepa-loadgen: -shard-id %d outside peer list of %d", shardID, len(peers))
	}
	ring, err := cluster.NewRing(len(peers), cluster.DefaultVnodes, 0)
	if err != nil {
		log.Fatal(err)
	}
	idx, err := cluster.BuildShard(built.Index, ring, shardID)
	if err != nil {
		log.Fatal(err)
	}
	node := cluster.NewNode(shardID, idx, built.Poly)
	var store core.Store = node
	if plan.Active() {
		store = netsim.NewChaosNode(node, plan, time.Sleep)
		fmt.Printf("serving shard with injected faults: %s\n", plan)
	}
	srv, err := wire.Serve(store, peers[shardID])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving cluster shard %d of %d on %s: A' slice %d keys / %d p-relations, ring version %x\n",
		shardID, len(peers), srv.Addr(), idx.NodeCount(), idx.EdgeCount(), ring.Version())
	fmt.Println("press Ctrl-C to stop")
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	srv.Close()
}
