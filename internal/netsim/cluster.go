package netsim

// Multi-node topology: the cluster analogue of the per-store latency and
// fault wrappers. A ChaosNode decorates one cluster peer (a shard node
// serving database-routed reads, frontier expansions and index snapshots
// over the wire) with a per-peer network profile, a per-peer FaultPlan, and
// a service-capacity model — at most Capacity requests are serviced
// concurrently, each holding a service slot for Service per object served.
// The capacity gate
// is what makes node-count sweeps show real scaling: one peer saturates at
// Capacity/Service requests per second, N peers at N times that, exactly
// like real stores bounded by their own executor pools.

import (
	"context"
	"time"

	"quepa/internal/core"
	"quepa/internal/wire"
)

// PeerNode is the store surface a cluster peer serves: plain store metadata
// plus the three wire cluster capabilities.
type PeerNode interface {
	core.Store
	wire.DBStore
	wire.FrontierReacher
	wire.Snapshotter
}

// PeerProfile is the simulated cost model of one cluster peer.
type PeerProfile struct {
	// Profile charges the network leg: one round trip per request plus a
	// per-object transfer cost, slept concurrently like real TCP.
	Profile Profile
	// Capacity bounds the requests serviced at once (0 disables the gate).
	Capacity int
	// Service is how long a request holds its service slot.
	Service time.Duration
}

// ChaosNode wraps a PeerNode with a peer profile and fault plan. Faults and
// stalls charge the data ops (database-routed reads and frontier
// expansions); snapshot transfers pay network and service cost but are not
// faulted, so bootstrap tests stay deterministic under any retry schedule.
type ChaosNode struct {
	inner PeerNode
	prof  PeerProfile
	sleep func(time.Duration)
	g     gate
	sem   chan struct{}
}

// NewChaosNode decorates a cluster peer. A nil sleep uses time.Sleep.
func NewChaosNode(inner PeerNode, prof PeerProfile, plan FaultPlan, sleep func(time.Duration)) *ChaosNode {
	if sleep == nil {
		sleep = time.Sleep
	}
	n := &ChaosNode{
		inner: inner,
		prof:  prof,
		sleep: sleep,
		g:     gate{name: inner.Name(), plan: plan, sleep: sleep},
	}
	if prof.Capacity > 0 {
		n.sem = make(chan struct{}, prof.Capacity)
	}
	return n
}

// Name returns the wrapped peer's name.
func (n *ChaosNode) Name() string { return n.inner.Name() }

// Kind returns the wrapped peer's kind.
func (n *ChaosNode) Kind() core.StoreKind { return n.inner.Kind() }

// Collections lists the wrapped peer's collections.
func (n *ChaosNode) Collections() []string { return n.inner.Collections() }

// Unwrap returns the wrapped peer.
func (n *ChaosNode) Unwrap() PeerNode { return n.inner }

// Requests returns how many data requests reached the fault gate.
func (n *ChaosNode) Requests() uint64 { return n.g.seq.Load() }

// Injected returns how many requests the plan failed.
func (n *ChaosNode) Injected() uint64 { return n.g.injected.Load() }

// Stalled returns how many requests the plan delayed.
func (n *ChaosNode) Stalled() uint64 { return n.g.stalled.Load() }

// charge pays the simulated cost of one request: the network leg first
// (concurrent, like independent round trips), then a service slot under the
// capacity gate held for Service per object served (minimum one), so the
// total service work of a query is conserved however the cluster splits it
// — the property that makes node-count sweeps meaningful.
func (n *ChaosNode) charge(objects int) {
	d := n.prof.Profile.RoundTrip + time.Duration(objects)*n.prof.Profile.PerObject
	if d > 0 {
		n.sleep(d)
	}
	if n.sem != nil {
		n.sem <- struct{}{}
		if n.prof.Service > 0 {
			units := objects
			if units < 1 {
				units = 1
			}
			n.sleep(time.Duration(units) * n.prof.Service)
		}
		<-n.sem
	}
}

// Get forwards to the wrapped peer (shard nodes reject it; the wrapper does
// not hide that).
func (n *ChaosNode) Get(ctx context.Context, collection, key string) (core.Object, error) {
	return n.inner.Get(ctx, collection, key)
}

// GetBatch forwards to the wrapped peer.
func (n *ChaosNode) GetBatch(ctx context.Context, collection string, keys []string) ([]core.Object, error) {
	return n.inner.GetBatch(ctx, collection, keys)
}

// Query forwards to the wrapped peer.
func (n *ChaosNode) Query(ctx context.Context, query string) ([]core.Object, error) {
	return n.inner.Query(ctx, query)
}

// GetDB serves one database-routed read under fault, network and capacity
// charging.
func (n *ChaosNode) GetDB(ctx context.Context, database, collection, key string) (core.Object, error) {
	if err := n.g.admit(); err != nil {
		return core.Object{}, err
	}
	o, err := n.inner.GetDB(ctx, database, collection, key)
	objs := 0
	if err == nil {
		objs = 1
	}
	n.charge(objs)
	return o, err
}

// GetBatchDB serves one database-routed batch read under charging.
func (n *ChaosNode) GetBatchDB(ctx context.Context, database, collection string, keys []string) ([]core.Object, error) {
	if err := n.g.admit(); err != nil {
		return nil, err
	}
	out, err := n.inner.GetBatchDB(ctx, database, collection, keys)
	n.charge(len(out))
	return out, err
}

// ExpandFrontier serves one scatter leg under charging.
func (n *ChaosNode) ExpandFrontier(ctx context.Context, keys []string, probs []float64, segs []int) ([]wire.RemoteHit, []int, wire.ReachInfo, error) {
	if err := n.g.admit(); err != nil {
		return nil, nil, wire.ReachInfo{}, err
	}
	hits, hitSegs, info, err := n.inner.ExpandFrontier(ctx, keys, probs, segs)
	n.charge(len(hits))
	return hits, hitSegs, info, err
}

// IndexSnapshot serves one snapshot transfer: charged, never faulted.
func (n *ChaosNode) IndexSnapshot(ctx context.Context) ([]byte, uint64, error) {
	data, epoch, err := n.inner.IndexSnapshot(ctx)
	n.charge(1)
	return data, epoch, err
}
