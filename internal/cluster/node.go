package cluster

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"quepa/internal/aindex"
	"quepa/internal/core"
	"quepa/internal/wire"
)

// PeerName renders the canonical name of shard i, the identity that appears
// in breaker snapshots, degradation reasons and trace attributes.
func PeerName(shard int) string { return fmt.Sprintf("peer-%d", shard) }

// Node is the peer-local half of the cluster: one shard of the A' index,
// served over the wire protocol. It implements core.Store (so wire.Serve
// accepts it) and the one cluster capability the wire server forwards: the
// reach op. Objects are never read through a node: every peer holds a full
// replica of every store and reads its own.
type Node struct {
	shard int
	name  string
	poly  *core.Polystore
	index *aindex.Index
	// hitBufs pools ReachMany's hit buffers (*[]aindex.Hit). One call holds
	// every origin's hits until it has converted them, and a reach frame is
	// the main work a peer does, so a fresh buffer per frame shows up in
	// the peer's garbage collection.
	hitBufs sync.Pool
}

// NewNode builds the local service of one shard over its A' slice and the
// peer's polystore.
func NewNode(shard int, index *aindex.Index, poly *core.Polystore) *Node {
	return &Node{shard: shard, name: PeerName(shard), poly: poly, index: index}
}

// Shard returns the shard this node owns.
func (n *Node) Shard() int { return n.shard }

// Index returns the node's A' shard.
func (n *Node) Index() *aindex.Index { return n.index }

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

// ReachMany answers Reach(origin, level) over the node's A' shard for every
// origin, in origin order and over one A' state: hits holds one run per
// origin, key-sorted within the run so the frame front-codes it, and segs
// the run lengths. The shard holds the whole island of every key the node
// owns, so for an owned origin the answer is the single-node one.
func (n *Node) ReachMany(ctx context.Context, origins []string, level int) ([]wire.RemoteHit, []int, wire.ReachInfo, error) {
	gks := make([]core.GlobalKey, len(origins))
	for i, o := range origins {
		gk, err := core.ParseGlobalKey(o)
		if err != nil {
			return nil, nil, wire.ReachInfo{}, fmt.Errorf("cluster: reach origin %q: %w", o, err)
		}
		gks[i] = gk
	}
	buf, _ := n.hitBufs.Get().(*[]aindex.Hit)
	if buf == nil {
		buf = new([]aindex.Hit)
	}
	defer n.hitBufs.Put(buf)
	var st aindex.ReachStats
	hits, runs := n.index.AppendReachMany((*buf)[:0], nil, gks, level, &st)
	*buf = hits
	out := make([]wire.RemoteHit, 0, len(hits))
	segs := make([]int, len(runs))
	for i, run := range runs {
		start := len(out)
		for _, h := range run {
			out = append(out, wire.RemoteHit{Key: h.Key.String(), Prob: h.Prob, Dist: h.Dist})
		}
		seg := out[start:]
		slices.SortFunc(seg, func(a, b wire.RemoteHit) int { return strings.Compare(a.Key, b.Key) })
		segs[i] = len(seg)
	}
	return out, segs, wire.ReachInfo{Nodes: st.Nodes, Edges: st.Edges}, nil
}

// BuildShard carves one shard out of a full A' index: every connected
// component that holds a key the shard owns on the ring, whole
// (aindex.Index.Islands). A reach never leaves its origin's component, so
// the owner of an origin answers its reach alone, exactly as the full
// index would. An island whose keys straddle owners is replicated on each
// of them; at ledger scale that grows a shard from 49–66% of A' edges to
// 84–95%, but by at most 1.2k keys. Routing stays by key
// (Ring.Owner), not by island: a union-find root is a per-process pointer
// no two peers agree on, and a giant island would pile all its origins
// onto one peer. A one-component A' makes every shard the full index, and
// origins still spread over the ring.
func BuildShard(full *aindex.Index, ring *Ring, shard int) (*aindex.Index, error) {
	return full.Islands(func(gk core.GlobalKey) bool { return ring.Owner(gk) == shard }), nil
}
