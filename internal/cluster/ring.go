// Package cluster distributes QUEPA across quepa-server peers: a consistent-
// hash ring partitions the core.GlobalKey space into shards, and every peer
// holds a full replica of every store plus its shard of the A' index —
// every connected component (island) that holds a key the peer owns, whole.
// A reach never leaves its origin's island, so the origin's owner answers it
// alone: the coordinator groups a request's origins by owner, sends one leg
// per owning peer over multiplexed wire clients, all in one round, and each
// leg's answers are final as they land. The paper's single-process augmenter
// (Fig. 2) is the degenerate one-peer ring; every distributed answer is
// required (and tested) to equal the single-node one.
//
// Failure follows the repo's degradation philosophy: a failed leg costs the
// origins its peer owns and a "peer-…" entry in the answer's degraded
// section (one fast rejection, "peer-open", once the peer's circuit breaker
// is open), never a failed query.
package cluster

import (
	"fmt"
	"sort"

	"quepa/internal/core"
)

// DefaultVnodes is the virtual-node count per peer when a topology does not
// choose one. 64 points per peer keeps the ownership imbalance of small
// rings within a few percent while Owner stays one binary search.
const DefaultVnodes = 64

// DefaultSeed is the ring hash seed shared by every peer of a deployment.
// All peers must agree on (peers, vnodes, seed) or they would route the same
// key to different owners; Version() fingerprints the agreement.
const DefaultSeed = 0x9e3779b97f4a7c15

// point is one virtual node on the ring: a position in hash space and the
// shard that owns the arc ending at it.
type point struct {
	hash  uint64
	shard int
}

// Ring is an immutable consistent-hash partition of the GlobalKey space
// across peers 0..Peers()-1. Construction is deterministic: every peer that
// builds a ring from the same (peers, vnodes, seed) gets the identical
// partition, so there is no membership protocol to agree on — only the
// topology flags, which are fixed for the life of a process.
type Ring struct {
	peers  int
	vnodes int
	seed   uint64
	points []point // sorted by hash
}

// NewRing builds the ring for a topology of n peers. vnodes <= 0 selects
// DefaultVnodes; seed 0 selects DefaultSeed.
func NewRing(n, vnodes int, seed uint64) (*Ring, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one peer, got %d", n)
	}
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	if seed == 0 {
		seed = DefaultSeed
	}
	r := &Ring{peers: n, vnodes: vnodes, seed: seed}
	r.points = make([]point, 0, n*vnodes)
	for shard := 0; shard < n; shard++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: vnodeHash(seed, shard, v), shard: shard})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A hash collision between two peers' vnodes is resolved by shard
		// order, identically on every peer.
		return r.points[i].shard < r.points[j].shard
	})
	return r, nil
}

// Peers returns the number of shards the ring partitions keys across.
func (r *Ring) Peers() int { return r.peers }

// Vnodes returns the virtual-node count per peer.
func (r *Ring) Vnodes() int { return r.vnodes }

// Seed returns the hash seed.
func (r *Ring) Seed() uint64 { return r.seed }

// Owner returns the shard owning gk: the shard of the first virtual node at
// or after the key's hash, wrapping past the top of the hash space.
func (r *Ring) Owner(gk core.GlobalKey) int {
	return r.OwnerString(gk.String())
}

// OwnerString is Owner over a raw "db.coll.key" string (the wire form).
func (r *Ring) OwnerString(key string) int {
	h := keyHash(r.seed, key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: keys past the last vnode belong to the first
	}
	return r.points[i].shard
}

// Version fingerprints the topology: two peers with equal versions route
// every key identically. It hashes every ring point, so it changes whenever
// peers, vnodes or seed do.
func (r *Ring) Version() uint64 {
	v := mix64(r.seed ^ uint64(r.peers)<<32 ^ uint64(r.vnodes))
	for _, p := range r.points {
		v = mix64(v ^ p.hash ^ uint64(p.shard))
	}
	return v
}

// Range is one arc of hash space [From, To] owned by a shard. To < From
// marks the wrapping arc across the top of the space.
type Range struct {
	From uint64 `json:"from"`
	To   uint64 `json:"to"`
}

// Ranges returns the arcs of hash space shard owns: for each of its virtual
// nodes, the arc from the predecessor point (exclusive, +1) to the node
// (inclusive). The union over all shards tiles the full 64-bit space.
func (r *Ring) Ranges(shard int) []Range {
	var out []Range
	for i, p := range r.points {
		if p.shard != shard {
			continue
		}
		prev := r.points[(i+len(r.points)-1)%len(r.points)].hash
		out = append(out, Range{From: prev + 1, To: p.hash})
	}
	return out
}

// vnodeHash positions one virtual node. Peers and vnodes are hashed through
// two rounds of splitmix64 finalization so adding peer n never moves the
// points of peers 0..n-1 — the structural property behind the ≤1/N remap
// guarantee.
func vnodeHash(seed uint64, shard, v int) uint64 {
	return mix64(mix64(seed+uint64(shard)*0x9e3779b97f4a7c15) + uint64(v)*0xbf58476d1ce4e5b9)
}

// keyHash maps a key string into ring space: FNV-1a over the bytes, then a
// splitmix64 finalizer to spread the low-entropy tail FNV leaves on short
// keys. Stateless and allocation-free, like netsim's fault draws.
func keyHash(seed uint64, key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64) ^ seed
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer (the same mixer netsim and the
// resilience jitter build on).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
