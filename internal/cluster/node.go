package cluster

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"quepa/internal/aindex"
	"quepa/internal/core"
	"quepa/internal/wire"
)

// PeerName renders the canonical name of shard i, the identity that appears
// in breaker snapshots, degradation reasons and trace attributes.
func PeerName(shard int) string { return fmt.Sprintf("peer-%d", shard) }

// Node is the peer-local half of the cluster: one shard of the A' index,
// served over the wire protocol. It implements core.Store (so wire.Serve
// accepts it) and the two cluster capabilities the wire server forwards:
// frontier expansion and index snapshots. Objects are never read through a
// node: every peer holds a full replica of every store and reads its own.
// The index pointer is swapped atomically on snapshot installs, so
// rebalances never block in-flight expansions.
type Node struct {
	shard int
	name  string
	poly  *core.Polystore
	index atomic.Pointer[aindex.Index]
}

// NewNode builds the local service of one shard over its A' slice and the
// peer's polystore.
func NewNode(shard int, index *aindex.Index, poly *core.Polystore) *Node {
	n := &Node{shard: shard, name: PeerName(shard), poly: poly}
	n.index.Store(index)
	return n
}

// Shard returns the shard this node owns.
func (n *Node) Shard() int { return n.shard }

// Index returns the node's current A' shard.
func (n *Node) Index() *aindex.Index { return n.index.Load() }

// Name identifies the node in meta responses and status pages.
func (n *Node) Name() string { return n.name }

// Kind reports key-value; the real store kinds live in the peer's
// polystore.
func (n *Node) Kind() core.StoreKind { return core.KindKeyValue }

// Collections lists the peer's databases — the closest meta-level analogue a
// multi-database shard has to collections.
func (n *Node) Collections() []string { return n.poly.Databases() }

// Get is unsupported: every peer reads objects from its own replica.
func (n *Node) Get(ctx context.Context, collection, key string) (core.Object, error) {
	return core.Object{}, fmt.Errorf("cluster: %s serves no object reads", n.name)
}

// GetBatch is unsupported for the same reason as Get.
func (n *Node) GetBatch(ctx context.Context, collection string, keys []string) ([]core.Object, error) {
	return nil, fmt.Errorf("cluster: %s serves no object reads", n.name)
}

// Query is unsupported: native-language queries run on the coordinator's
// local replica.
func (n *Node) Query(ctx context.Context, query string) ([]core.Object, error) {
	return nil, fmt.Errorf("cluster: %s does not serve native queries", n.name)
}

// ExpandFrontier expands a weighted frontier one hop over the node's A'
// shard: for every (key, prob) pair, the direct p-relations of key
// contribute prob×edge hits, deduplicated by maximum probability and
// returned in key order so merges are deterministic on any peer.
//
// segs splits the frontier into consecutive runs, one per origin of a
// many-origin traversal. Each run is expanded and deduplicated on its own —
// two origins reaching the same key keep their own probabilities — and the
// returned run lengths split the hits the same way, key-sorted within each
// run. Nil segs is one run and returns nil run lengths.
func (n *Node) ExpandFrontier(ctx context.Context, keys []string, probs []float64, segs []int) ([]wire.RemoteHit, []int, wire.ReachInfo, error) {
	if len(keys) != len(probs) {
		return nil, nil, wire.ReachInfo{}, fmt.Errorf("cluster: frontier of %d keys with %d probs", len(keys), len(probs))
	}
	runs := segs
	if len(runs) == 0 {
		runs = []int{len(keys)}
	}
	ix := n.index.Load()
	var (
		info    wire.ReachInfo
		out     []wire.RemoteHit
		hitSegs []int
		at      int
	)
	best := make(map[string]float64, len(keys))
	for _, run := range runs {
		if run < 0 || run > len(keys)-at {
			return nil, nil, wire.ReachInfo{}, fmt.Errorf("cluster: frontier segments overrun %d keys", len(keys))
		}
		clear(best)
		for i := at; i < at+run; i++ {
			gk, err := core.ParseGlobalKey(keys[i])
			if err != nil {
				return nil, nil, wire.ReachInfo{}, fmt.Errorf("cluster: frontier key %q: %w", keys[i], err)
			}
			// Level 0 is exactly one hop (Definition 2), with the edge
			// probabilities as hit probabilities — the building block the
			// coordinator chains into multi-hop reachability.
			hits, st := ix.ReachWithStats(gk, 0)
			info.Nodes += st.Nodes
			info.Edges += st.Edges
			for _, h := range hits {
				p := probs[i] * h.Prob
				ks := h.Key.String()
				if p > best[ks] {
					best[ks] = p
				}
			}
		}
		at += run
		start := len(out)
		for k, p := range best {
			out = append(out, wire.RemoteHit{Key: k, Prob: p})
		}
		seg := out[start:]
		sort.Slice(seg, func(i, j int) bool { return seg[i].Key < seg[j].Key })
		if len(segs) > 0 {
			hitSegs = append(hitSegs, len(seg))
		}
	}
	if at != len(keys) {
		return nil, nil, wire.ReachInfo{}, fmt.Errorf("cluster: frontier segments cover %d of %d keys", at, len(keys))
	}
	return out, hitSegs, info, nil
}

// IndexSnapshot serializes the node's A' shard in the binary checkpoint
// format, stamped with its mutation epoch — the payload of the snapshot
// wire op.
func (n *Node) IndexSnapshot(ctx context.Context) ([]byte, uint64, error) {
	edges, epoch := n.index.Load().EdgesWithEpoch()
	var buf bytes.Buffer
	if _, err := aindex.WriteSnapshot(&buf, edges, epoch); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), epoch, nil
}

// InstallSnapshot replaces the node's A' shard with the edges of a peer
// snapshot filtered to this node's ownership under ring — the receive side
// of bootstrap and rebalance. The swap is atomic; readers finish on the old
// shard. It returns the snapshot's epoch.
func (n *Node) InstallSnapshot(data []byte, ring *Ring) (uint64, error) {
	full, epoch, err := aindex.ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		return 0, fmt.Errorf("cluster: installing snapshot: %w", err)
	}
	shard, err := shardIndex(full.Edges(), ring, n.shard)
	if err != nil {
		return 0, err
	}
	n.index.Store(shard)
	return epoch, nil
}

// MergeSnapshots installs the union of several peers' snapshots, filtered
// to this node's ownership: what a joining peer does after fetching the
// snapshot op from every existing member during a rebalance.
func (n *Node) MergeSnapshots(datas [][]byte, ring *Ring) error {
	seen := map[[2]core.GlobalKey]bool{}
	var edges []core.PRelation
	for _, data := range datas {
		full, _, err := aindex.ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return fmt.Errorf("cluster: merging snapshots: %w", err)
		}
		for _, e := range full.Edges() {
			k := [2]core.GlobalKey{e.From, e.To}
			if !seen[k] {
				seen[k] = true
				edges = append(edges, e)
			}
		}
	}
	shard, err := shardIndex(edges, ring, n.shard)
	if err != nil {
		return err
	}
	n.index.Store(shard)
	return nil
}

// BuildShard carves one shard out of a full A' index: every p-relation with
// at least one endpoint owned by the shard. Keeping boundary edges whose far
// endpoint lives elsewhere is what lets a frontier expansion step off the
// shard — the coordinator routes the discovered key to its own owner on the
// next hop.
func BuildShard(full *aindex.Index, ring *Ring, shard int) (*aindex.Index, error) {
	return shardIndex(full.Edges(), ring, shard)
}

func shardIndex(edges []core.PRelation, ring *Ring, shard int) (*aindex.Index, error) {
	ix := aindex.New()
	for _, e := range edges {
		if ring.Owner(e.From) != shard && ring.Owner(e.To) != shard {
			continue
		}
		if err := ix.InsertRaw(e); err != nil {
			return nil, fmt.Errorf("cluster: building shard %d: %w", shard, err)
		}
	}
	return ix, nil
}
