package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"

	"quepa/internal/aindex"
	"quepa/internal/augment"
	"quepa/internal/core"
	"quepa/internal/rcache"
	"quepa/internal/resilience"
	"quepa/internal/telemetry"
	"quepa/internal/wire"
)

// Scatter telemetry: fan-out volume and the failure modes a burning peer
// produces.
var (
	scatterCalls = telemetry.NewCounter("quepa_cluster_scatter_total",
		"scatter legs fanned out by cluster coordinators (local and remote)")
	scatterOrigins = telemetry.NewCounter("quepa_cluster_scatter_keys_total",
		"origins shipped in scatter legs: every distinct origin of a request, to its owner")
	scatterErrors = telemetry.NewCounter("quepa_cluster_scatter_errors_total",
		"scatter legs that failed (transport or remote error, breaker rejections excluded)")
	peerOpenRejects = telemetry.NewCounter("quepa_cluster_peer_open_total",
		"scatter legs rejected fast by an open per-peer circuit breaker")
)

// Config assembles a Coordinator. Ring, Peers and Self are required; every
// peer of a deployment must construct the identical Ring (same peer count,
// vnodes and seed — Version() fingerprints the agreement).
type Config struct {
	// Ring is the partition of key space this coordinator routes by.
	Ring *Ring
	// Peers holds one wire address per shard, indexed by shard ID.
	Peers []string
	// Self is this peer's shard ID.
	Self int
	// Node is the local shard service, consulted directly (no wire hop) for
	// self-owned work.
	Node *Node
	// Breaker configures the per-peer circuit breakers.
	Breaker resilience.BreakerConfig
	// Client configures the pooled wire client dialed to each peer.
	Client wire.ClientConfig
}

// Coordinator owns this peer's view of the cluster: the ring, one pooled
// multiplexed wire client per remote peer, and one circuit breaker per peer.
// It implements augment.Reacher — scattered reachability: each origin is
// answered whole by its owner. A peer whose breaker is open costs one fast
// rejection and a "peer-open" degradation, never a failed query. The ring
// and peer list are fixed for the life of the coordinator.
type Coordinator struct {
	ring     *Ring
	peers    []string
	self     int
	node     *Node
	breakers *resilience.Set
	ccfg     wire.ClientConfig

	cmu     sync.Mutex
	clients map[string]*wire.Client // lazily dialed, keyed by address
}

// NewCoordinator validates the topology and builds a coordinator. Clients
// are dialed lazily on first use, so construction succeeds before the other
// peers are up.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.Ring == nil {
		return nil, errors.New("cluster: coordinator needs a ring")
	}
	if len(cfg.Peers) != cfg.Ring.Peers() {
		return nil, fmt.Errorf("cluster: ring of %d peers but %d addresses", cfg.Ring.Peers(), len(cfg.Peers))
	}
	if cfg.Self < 0 || cfg.Self >= cfg.Ring.Peers() {
		return nil, fmt.Errorf("cluster: shard id %d outside ring of %d peers", cfg.Self, cfg.Ring.Peers())
	}
	if cfg.Node == nil {
		return nil, errors.New("cluster: coordinator needs a local node")
	}
	return &Coordinator{
		ring:     cfg.Ring,
		peers:    append([]string(nil), cfg.Peers...),
		self:     cfg.Self,
		node:     cfg.Node,
		breakers: resilience.NewSet(cfg.Breaker),
		ccfg:     cfg.Client,
		clients:  map[string]*wire.Client{},
	}, nil
}

// Self returns this peer's shard ID.
func (c *Coordinator) Self() int { return c.self }

// SetResultCache does nothing: no peer memoizes reaches. It exists only
// because benchmark/stack.go and benchmark/layers.go call it, until the
// ledger assembles its stack through server.New.
func (c *Coordinator) SetResultCache(*rcache.Cache) {}

// Close tears down every dialed peer client.
func (c *Coordinator) Close() {
	c.cmu.Lock()
	clients := make([]*wire.Client, 0, len(c.clients))
	for addr, cl := range c.clients {
		clients = append(clients, cl)
		delete(c.clients, addr)
	}
	c.cmu.Unlock()
	for _, cl := range clients {
		cl.Close()
	}
}

// client returns the pooled wire client for addr, dialing on first use.
func (c *Coordinator) client(addr string) (*wire.Client, error) {
	c.cmu.Lock()
	if cl, ok := c.clients[addr]; ok {
		c.cmu.Unlock()
		return cl, nil
	}
	c.cmu.Unlock()
	cl, err := wire.DialConfig(addr, c.ccfg)
	if err != nil {
		return nil, err
	}
	c.cmu.Lock()
	if old, ok := c.clients[addr]; ok {
		c.cmu.Unlock()
		cl.Close()
		return old, nil
	}
	c.clients[addr] = cl
	c.cmu.Unlock()
	return cl, nil
}

// peerReason classifies a failed scatter leg for the degraded section.
func peerReason(err error) string {
	var ne net.Error
	switch {
	case errors.Is(err, resilience.ErrPeerOpen), errors.Is(err, resilience.ErrOpen):
		return "peer-open"
	case errors.Is(err, context.DeadlineExceeded), errors.As(err, &ne) && ne.Timeout():
		return "peer-timeout"
	default:
		return "peer-error: " + err.Error()
	}
}

// leg is one peer's share of a request: the distinct origins the peer owns,
// and the result slot each one fills.
type leg struct {
	shard   int
	origins []core.GlobalKey
	slots   []int
}

// wireOrigins returns the leg's origins in wire form, sorted so the frame
// front-codes them, and reorders slots to match.
func (l *leg) wireOrigins() []string {
	type origin struct {
		key  string
		slot int
	}
	sorted := make([]origin, len(l.origins))
	for i, o := range l.origins {
		sorted[i] = origin{o.String(), l.slots[i]}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].key < sorted[j].key })
	keys := make([]string, len(sorted))
	for i, o := range sorted {
		keys[i], l.slots[i] = o.key, o.slot
	}
	return keys
}

// reachLeg runs one scatter leg and fills its origins' slots of out: the
// local node's reach for the self leg, the peer's wire client —
// guarded by its breaker — otherwise. A failed leg leaves its slots empty.
// Every leg of a traced request runs under a cluster.scatter span tagged
// with the shard; a remote leg continues the caller's trace over the wire.
func (c *Coordinator) reachLeg(ctx context.Context, l *leg, level int, out [][]aindex.Hit) (stats aindex.ReachStats, err error) {
	scatterCalls.Inc()
	scatterOrigins.Add(uint64(len(l.origins)))
	sctx := ctx
	var sp *telemetry.Span
	if telemetry.SpanFromContext(ctx) != nil {
		sctx, sp = telemetry.StartSpan(ctx, "cluster.scatter")
		sp.SetAttr("shard", strconv.Itoa(l.shard))
		sp.SetAttr("peer", PeerName(l.shard))
		sp.SetAttr("addr", c.peers[l.shard])
		sp.SetAttr("keys", strconv.Itoa(len(l.origins)))
	}
	hits := 0
	if l.shard == c.self {
		hits, stats = c.selfLeg(l, level, out)
	} else {
		hits, stats, err = c.remoteLeg(sctx, l, level, out)
	}
	if sp != nil {
		if err != nil {
			sp.Mark(telemetry.FlagError)
			sp.SetAttr("error", err.Error())
		} else {
			sp.SetAttr("hits", strconv.Itoa(hits))
		}
		sp.End()
	}
	if err != nil && l.shard != c.self && !errors.Is(err, resilience.ErrPeerOpen) {
		scatterErrors.Inc()
	}
	return stats, err
}

// selfLeg reaches the leg's origins over the local node's shard in one
// call, so they all answer over one A' state, and fills each origin's slot
// with its run. It returns the hit count and the traversal work.
func (c *Coordinator) selfLeg(l *leg, level int, out [][]aindex.Hit) (int, aindex.ReachStats) {
	var stats aindex.ReachStats
	hits, runs := c.node.index.AppendReachMany(nil, nil, l.origins, level, &stats)
	for i, slot := range l.slots {
		out[slot] = runs[i]
	}
	return len(hits), stats
}

// remoteLeg ships a leg's origins to their owner in one reach frame and
// decodes one segment of hits per origin into its slot. It returns the hit
// count and the traversal work the peer reported.
func (c *Coordinator) remoteLeg(ctx context.Context, l *leg, level int, out [][]aindex.Hit) (int, aindex.ReachStats, error) {
	b := c.breakers.Breaker(PeerName(l.shard))
	if err := b.Allow(); err != nil {
		peerOpenRejects.Inc()
		return 0, aindex.ReachStats{}, fmt.Errorf("cluster: %s: %w", PeerName(l.shard), resilience.ErrPeerOpen)
	}
	cl, err := c.client(c.peers[l.shard])
	if err != nil {
		b.Record(err)
		return 0, aindex.ReachStats{}, err
	}
	hits, segs, info, err := cl.ReachMany(ctx, l.wireOrigins(), level)
	b.Record(err)
	if err != nil {
		return 0, aindex.ReachStats{}, err
	}
	// Every hit parses before any slot is written: a leg fails whole.
	reached := make([]aindex.Hit, len(hits))
	for i, h := range hits {
		gk, err := core.ParseGlobalKey(h.Key)
		if err != nil {
			return 0, aindex.ReachStats{}, fmt.Errorf("cluster: %s answered key %q: %w", PeerName(l.shard), h.Key, err)
		}
		reached[i] = aindex.Hit{Key: gk, Prob: h.Prob, Dist: h.Dist}
	}
	for i, n := range segs {
		seg := reached[:n:n]
		reached = reached[n:]
		// Segments travel key-sorted for front-coding; Reach orders by
		// probability.
		aindex.SortHits(seg)
		out[l.slots[i]] = seg
	}
	return len(hits), aindex.ReachStats{Nodes: info.Nodes, Edges: info.Edges}, nil
}

// ReachScatter is ReachScatterMany for one origin.
func (c *Coordinator) ReachScatter(ctx context.Context, origin core.GlobalKey, level int) ([]aindex.Hit, aindex.ReachStats, []augment.Degradation) {
	hits, stats, degs := c.ReachScatterMany(ctx, []core.GlobalKey{origin}, level)
	return hits[0], stats, degs
}

// ReachScatterMany is the distributed α of Definition 2 for every origin of
// a request at once: result i holds the hits, probabilities and distances of
// aindex.Index.Reach(origins[i], level) over the unsharded index, and the
// stats sum the traversal work the owners did.
//
// Every peer's shard holds the whole island of every key it owns
// (BuildShard), so the owner of an origin answers its reach with one local
// traversal. A request is therefore one round: each distinct origin goes to
// its owner, one leg per owning peer, the legs run in parallel and each
// fills its own origins' results as it lands. The self leg reads the local
// node directly. A request costs at most one leg per peer, whatever the
// level and however many origins it has.
//
// A failed leg degrades exactly the origins its peer owns: they get no
// hits, and the peer is reported once as a Degradation (an open breaker
// yields "peer-open"). Every other origin keeps its full answer.
//
// Every reach is computed: no peer memoizes one, so a repeated origin costs
// its traversal again. Results of equal origins share one slice; callers
// must not modify them.
//
// ReachScatterMany implements augment.Reacher.
func (c *Coordinator) ReachScatterMany(ctx context.Context, origins []core.GlobalKey, level int) ([][]aindex.Hit, aindex.ReachStats, []augment.Degradation) {
	out := make([][]aindex.Hit, len(origins))
	legs := make([]*leg, c.ring.Peers())
	first := make(map[core.GlobalKey]int, len(origins)) // slot of an origin's first occurrence
	for i, o := range origins {
		if _, dup := first[o]; dup {
			continue
		}
		first[o] = i
		shard := c.ring.Owner(o)
		if legs[shard] == nil {
			legs[shard] = &leg{shard: shard}
		}
		legs[shard].origins = append(legs[shard].origins, o)
		legs[shard].slots = append(legs[shard].slots, i)
	}

	type result struct {
		stats aindex.ReachStats
		err   error
	}
	results := make([]result, len(legs))
	var wg sync.WaitGroup
	for shard, l := range legs {
		if l == nil || shard == c.self {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[shard].stats, results[shard].err = c.reachLeg(ctx, l, level, out)
		}()
	}
	if l := legs[c.self]; l != nil {
		results[c.self].stats, results[c.self].err = c.reachLeg(ctx, l, level, out)
	}
	wg.Wait()

	var (
		stats aindex.ReachStats
		degs  []augment.Degradation
	)
	for shard, r := range results {
		if r.err != nil {
			degs = append(degs, augment.Degradation{Store: PeerName(shard), Reason: peerReason(r.err), Level: level})
			continue
		}
		stats.Nodes += r.stats.Nodes
		stats.Edges += r.stats.Edges
	}
	for i, o := range origins {
		if j := first[o]; j != i {
			out[i] = out[j]
		}
	}
	return out, stats, degs
}

// RoutePolystore returns poly unchanged: every peer holds a full replica of
// every store, so keyed reads stay local and only reachability is scattered.
// It exists only for benchmark/stack.go, until the ledger assembles its stack
// through server.New.
func RoutePolystore(poly *core.Polystore, _ *Coordinator) (*core.Polystore, error) {
	return poly, nil
}

// PeerStatus is one peer's row in the cluster section of /healthz.
type PeerStatus struct {
	Shard int    `json:"shard"`
	Addr  string `json:"addr"`
	Self  bool   `json:"self,omitempty"`
	// Breaker is the coordinator's circuit view of the peer; absent for
	// self (a peer does not guard itself) and for peers never yet called.
	Breaker *resilience.BreakerStatus `json:"breaker,omitempty"`
	// OwnedRanges counts the hash-space arcs the peer owns. The arcs
	// themselves follow from the peer list, DefaultVnodes and DefaultSeed.
	OwnedRanges int `json:"owned_ranges"`
}

// Status is the cluster section of /healthz: ring identity plus one row per
// peer.
type Status struct {
	RingVersion uint64       `json:"ring_version"`
	Peers       int          `json:"peers"`
	Vnodes      int          `json:"vnodes"`
	Self        int          `json:"self"`
	PeerList    []PeerStatus `json:"peer_list"`
}

// Status snapshots the cluster for /healthz and the startup log.
func (c *Coordinator) Status() Status {
	byName := map[string]resilience.BreakerStatus{}
	for _, bs := range c.breakers.Snapshot() {
		byName[bs.Store] = bs
	}
	st := Status{
		RingVersion: c.ring.Version(),
		Peers:       c.ring.Peers(),
		Vnodes:      c.ring.Vnodes(),
		Self:        c.self,
	}
	for shard, addr := range c.peers {
		ps := PeerStatus{Shard: shard, Addr: addr, Self: shard == c.self, OwnedRanges: len(c.ring.Ranges(shard))}
		if bs, ok := byName[PeerName(shard)]; ok && shard != c.self {
			b := bs
			ps.Breaker = &b
		}
		st.PeerList = append(st.PeerList, ps)
	}
	return st
}

// AnyPeerOpen reports whether any per-peer breaker currently rejects calls
// (the /healthz signal that a peer is burning).
func (c *Coordinator) AnyPeerOpen() bool { return c.breakers.AnyOpen() }
