package netsim

// Multi-node faults: the cluster analogue of the per-store Chaos wrapper. A
// ChaosNode decorates one cluster peer (a shard node serving frontier
// expansions and index snapshots over the wire) with a per-peer FaultPlan, so
// peer-down, flapping and slow-shard scenarios replay deterministically
// against in-process or real peers.

import (
	"context"
	"time"

	"quepa/internal/core"
	"quepa/internal/wire"
)

// PeerNode is the store surface a cluster peer serves: plain store metadata
// plus the two wire cluster capabilities.
type PeerNode interface {
	core.Store
	wire.FrontierReacher
	wire.Snapshotter
}

// ChaosNode wraps a PeerNode with a fault plan. Faults and stalls charge the
// data op (frontier expansion); snapshot transfers are never faulted, so
// bootstrap tests stay deterministic under any retry schedule.
type ChaosNode struct {
	inner PeerNode
	g     gate
}

// NewChaosNode decorates a cluster peer. A nil sleep uses time.Sleep.
func NewChaosNode(inner PeerNode, plan FaultPlan, sleep func(time.Duration)) *ChaosNode {
	if sleep == nil {
		sleep = time.Sleep
	}
	return &ChaosNode{inner: inner, g: gate{name: inner.Name(), plan: plan, sleep: sleep}}
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

// ExpandFrontier serves one scatter leg unless the plan faults the request.
func (n *ChaosNode) ExpandFrontier(ctx context.Context, keys []string, probs []float64, segs []int) ([]wire.RemoteHit, []int, wire.ReachInfo, error) {
	if err := n.g.admit(); err != nil {
		return nil, nil, wire.ReachInfo{}, err
	}
	return n.inner.ExpandFrontier(ctx, keys, probs, segs)
}

// IndexSnapshot serves one snapshot transfer: never faulted.
func (n *ChaosNode) IndexSnapshot(ctx context.Context) ([]byte, uint64, error) {
	return n.inner.IndexSnapshot(ctx)
}
