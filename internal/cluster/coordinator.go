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

// Scatter-gather telemetry: fan-out volume, merge traffic and the failure
// modes a burning peer produces.
var (
	scatterCalls = telemetry.NewCounter("quepa_cluster_scatter_total",
		"frontier-expansion calls fanned out by cluster coordinators (local and remote)")
	scatterKeys = telemetry.NewCounter("quepa_cluster_scatter_keys_total",
		"frontier keys shipped in scatter-gather expansions")
	scatterErrors = telemetry.NewCounter("quepa_cluster_scatter_errors_total",
		"scatter legs that failed (transport or remote error, breaker rejections excluded)")
	peerOpenRejects = telemetry.NewCounter("quepa_cluster_peer_open_total",
		"scatter legs rejected fast by an open per-peer circuit breaker")
	deltaKeysShipped = telemetry.NewCounter("quepa_cluster_delta_keys_total",
		"frontier keys shipped by scatter traversals (only arrivals that improved a key travel on)")
	deltaSuppressed = telemetry.NewCounter("quepa_cluster_delta_suppressed_total",
		"frontier arrivals dropped by scatter traversals because they improved nothing")
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
	// Rcache, when non-nil, memoizes whole per-origin scatter results keyed
	// by (origin, level) and validated against the scatter epoch, the local
	// shard's index epoch. A nil cache disables memoization.
	Rcache *rcache.Cache
}

// Coordinator owns this peer's view of the cluster: the ring, one pooled
// multiplexed wire client per remote peer, and one circuit breaker per peer.
// It implements augment.Reacher — scatter-gather reachability. A peer whose
// breaker is open costs one fast rejection and a "peer-open" degradation,
// never a failed query. The ring and peer list are fixed for the life of the
// coordinator.
type Coordinator struct {
	ring     *Ring
	peers    []string
	self     int
	node     *Node
	breakers *resilience.Set
	ccfg     wire.ClientConfig
	rc       *rcache.Cache

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
		rc:       cfg.Rcache,
		clients:  map[string]*wire.Client{},
	}, nil
}

// Self returns this peer's shard ID.
func (c *Coordinator) Self() int { return c.self }

// SetResultCache installs (or replaces) the scatter result cache after
// construction — the server shares one cache between the augmenter and the
// coordinator. Call it before serving traffic.
func (c *Coordinator) SetResultCache(rc *rcache.Cache) { c.rc = rc }

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

// originSlot is the traversal state of one distinct uncached origin of a
// request. Slots never share state: two origins inside the same A' island
// reach the same keys with different probabilities.
type originSlot struct {
	origin   core.GlobalKey
	best     map[core.GlobalKey]aindex.Hit
	frontier map[core.GlobalKey]float64
}

// leg is one peer's share of one hop: the sub-frontier of every slot that
// has keys owned by the shard, concatenated in slot order as one segment per
// slot, keys sorted within a segment for deterministic, front-codable frames.
type leg struct {
	shard int
	slots []int // slot index of each segment
	segs  []int // run length of each segment, parallel to slots
	keys  []string
	probs []float64
}

// wireSegs is the segment column the leg ships: absent for a single segment,
// so a one-origin leg is the frame it was before segments existed.
func (l *leg) wireSegs() []int {
	if len(l.segs) > 1 {
		return l.segs
	}
	return nil
}

// hopLegs groups every slot's frontier by ring ownership into one leg per
// owning shard, legs ordered by shard. Shards already dropped this traversal
// get no leg: their sub-frontier is lost, the healthy shards keep going.
func hopLegs(ring *Ring, slots []*originSlot, dead map[int]augment.Degradation) []*leg {
	byShard := make([]*leg, ring.Peers())
	var sorted []core.GlobalKey
	for si, s := range slots {
		sorted = sorted[:0]
		for k := range s.frontier {
			sorted = append(sorted, k)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Compare(sorted[j]) < 0 })
		for _, k := range sorted {
			shard := ring.Owner(k)
			if _, gone := dead[shard]; gone {
				continue
			}
			l := byShard[shard]
			if l == nil {
				l = &leg{shard: shard}
				byShard[shard] = l
			}
			if n := len(l.slots); n == 0 || l.slots[n-1] != si {
				l.slots = append(l.slots, si)
				l.segs = append(l.segs, 0)
			}
			l.segs[len(l.segs)-1]++
			l.keys = append(l.keys, k.String())
			l.probs = append(l.probs, s.frontier[k])
		}
	}
	legs := byShard[:0]
	for _, l := range byShard {
		if l != nil {
			legs = append(legs, l)
		}
	}
	return legs
}

// scatterResult is one leg's answer.
type scatterResult struct {
	hits []wire.RemoteHit
	segs []int // run lengths splitting hits per leg segment; nil for one segment
	info wire.ReachInfo
	err  error
}

// expandLeg runs one scatter leg: the local node directly for self-owned
// legs, the peer's wire client — guarded by its breaker — otherwise. Every
// leg of a traced request runs under a cluster.scatter span tagged with the
// shard; a remote leg continues the caller's trace over the wire.
func (c *Coordinator) expandLeg(ctx context.Context, l *leg) (res scatterResult) {
	scatterCalls.Inc()
	scatterKeys.Add(uint64(len(l.keys)))
	sctx := ctx
	var sp *telemetry.Span
	if telemetry.SpanFromContext(ctx) != nil {
		sctx, sp = telemetry.StartSpan(ctx, "cluster.scatter")
		sp.SetAttr("shard", strconv.Itoa(l.shard))
		sp.SetAttr("peer", PeerName(l.shard))
		sp.SetAttr("addr", c.peers[l.shard])
		sp.SetAttr("keys", strconv.Itoa(len(l.keys)))
	}
	res.err = func() error {
		if l.shard == c.self {
			var err error
			res.hits, res.segs, res.info, err = c.node.ExpandFrontier(sctx, l.keys, l.probs, l.wireSegs())
			return err
		}
		b := c.breakers.Breaker(PeerName(l.shard))
		if err := b.Allow(); err != nil {
			peerOpenRejects.Inc()
			return fmt.Errorf("cluster: %s: %w", PeerName(l.shard), resilience.ErrPeerOpen)
		}
		cl, err := c.client(c.peers[l.shard])
		if err != nil {
			b.Record(err)
			return err
		}
		res.hits, res.segs, res.info, err = cl.ExpandFrontier(sctx, l.keys, l.probs, l.wireSegs())
		b.Record(err)
		return err
	}()
	if sp != nil {
		if res.err != nil {
			sp.Mark(telemetry.FlagError)
			sp.SetAttr("error", res.err.Error())
		} else {
			sp.SetAttr("hits", strconv.Itoa(len(res.hits)))
		}
		sp.End()
	}
	if res.err != nil && l.shard != c.self && !errors.Is(res.err, resilience.ErrPeerOpen) {
		scatterErrors.Inc()
	}
	return res
}

// ReachScatter is ReachScatterMany for one origin. A result served from the
// scatter cache reports zero traversal nodes and edges, as the augmenter's
// local-index cache path does: no traversal ran, and it is what lets cached
// entries be filled per origin from a many-origin traversal whose peers
// report their work per leg, not per origin.
func (c *Coordinator) ReachScatter(ctx context.Context, origin core.GlobalKey, level int) ([]aindex.Hit, aindex.ReachStats, []augment.Degradation) {
	hits, stats, degs := c.ReachScatterMany(ctx, []core.GlobalKey{origin}, level)
	return hits[0], stats, degs
}

// ReachScatterMany is the distributed α of Definition 2 for every origin of
// a request at once: result i holds the hits, probabilities and distances of
// aindex.Index.Reach(origins[i], level) over the unsharded index whenever
// every peer is healthy. The traversal is hop-synchronous across the whole
// request — each hop ships one leg per owning peer, carrying every origin's
// sub-frontier for that peer as its own segment, and merges the answers per
// origin behind a barrier — so a request costs at most (level+1) × peers
// legs however many origins it has. A shard that fails mid-traversal is
// dropped from the remainder of it and reported as a Degradation, shared by
// all origins, instead of failing the query.
//
// When Config.Rcache is set, origins are looked up one by one before the
// traversal and only the misses are shipped; after a clean traversal each
// miss is memoized against the scatter epoch, so a repeated origin costs
// zero network legs until the local shard's index moves.
// The returned stats sum the traversal work of the misses. Results of equal
// origins share one slice; callers must not modify them.
//
// ReachScatterMany implements augment.Reacher.
func (c *Coordinator) ReachScatterMany(ctx context.Context, origins []core.GlobalKey, level int) ([][]aindex.Hit, aindex.ReachStats, []augment.Degradation) {
	out := make([][]aindex.Hit, len(origins))
	// The scatter stamp is the local shard's index epoch. Mutations that land
	// only on remote shards do not move it.
	var epoch uint64
	if c.rc != nil {
		epoch = c.node.Index().Epoch()
	}
	var (
		slots    []*originSlot
		slotOf   = make([]int, len(origins)) // slot of origins[i]; -1: served from the cache
		slotFor  = make(map[core.GlobalKey]int, len(origins))
		cacheHit int
	)
	for i, o := range origins {
		if si, dup := slotFor[o]; dup {
			slotOf[i] = si
			continue
		}
		if c.rc != nil {
			if hits, _, ok := c.rc.GetReach(scatterKey(o, level), epoch); ok {
				out[i], slotOf[i] = hits, -1
				cacheHit++
				continue
			}
		}
		slotFor[o], slotOf[i] = len(slots), len(slots)
		slots = append(slots, &originSlot{
			origin:   o,
			best:     map[core.GlobalKey]aindex.Hit{o: {Key: o, Prob: 1, Dist: 0}},
			frontier: map[core.GlobalKey]float64{o: 1},
		})
	}
	// The scatter cache's hits count toward the augmentation that asked.
	if sp := telemetry.SpanFromContext(ctx); sp != nil && cacheHit > 0 {
		sp.SetAttr("rcache_hits", strconv.Itoa(cacheHit))
	}
	if len(slots) == 0 {
		return out, aindex.ReachStats{}, nil
	}
	stats, degs := c.traverse(ctx, slots, level)
	reached := make([][]aindex.Hit, len(slots))
	for si, s := range slots {
		hits := make([]aindex.Hit, 0, len(s.best)-1)
		for k, h := range s.best {
			if k != s.origin {
				hits = append(hits, h)
			}
		}
		aindex.SortHits(hits)
		reached[si] = hits
		// Only clean traversals are cacheable: a degraded result reflects a
		// transient peer failure, not the index, and must not outlive it.
		if c.rc != nil && len(degs) == 0 {
			c.rc.PutReach(scatterKey(s.origin, level), epoch, hits, aindex.ReachStats{})
		}
	}
	for i, si := range slotOf {
		if si >= 0 {
			out[i] = reached[si]
		}
	}
	return out, stats, degs
}

func scatterKey(origin core.GlobalKey, level int) rcache.Key {
	return rcache.Key{GK: origin, Level: level, Kind: rcache.KindScatter}
}

// traverse runs the hop-synchronous traversal over slots, leaving every
// slot's best map final. Within a hop the legs run in parallel; between hops
// a barrier holds until every leg has merged, which is what makes distances
// exact (a key's first improving arrival is its shortest chain) and, with
// every peer healthy, the summed traversal stats equal the single-node
// reference traversals'.
func (c *Coordinator) traverse(ctx context.Context, slots []*originSlot, level int) (aindex.ReachStats, []augment.Degradation) {
	var (
		stats               aindex.ReachStats
		shipped, suppressed int
	)
	degraded := map[int]augment.Degradation{}
	for hop := 1; hop <= level+1; hop++ {
		legs := hopLegs(c.ring, slots, degraded)
		if len(legs) == 0 {
			break
		}
		results := make([]scatterResult, len(legs))
		var wg sync.WaitGroup
		for i, l := range legs[1:] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i+1] = c.expandLeg(ctx, l)
			}()
		}
		results[0] = c.expandLeg(ctx, legs[0])
		wg.Wait()
		for _, s := range slots {
			clear(s.frontier) // the legs hold what was shipped; merge refills it
		}
		for i, res := range results {
			l := legs[i]
			shipped += len(l.keys)
			if res.err != nil {
				degraded[l.shard] = augment.Degradation{
					Store:  PeerName(l.shard),
					Reason: peerReason(res.err),
					Level:  level,
				}
				continue
			}
			stats.Nodes += res.info.Nodes
			stats.Edges += res.info.Edges
			at := 0
			for j, si := range l.slots {
				run := len(res.hits)
				if len(l.segs) > 1 {
					run = res.segs[j]
				}
				suppressed += slots[si].merge(res.hits[at:at+run], hop)
				at += run
			}
		}
	}
	deltaKeysShipped.Add(uint64(shipped))
	deltaSuppressed.Add(uint64(suppressed))
	degs := make([]augment.Degradation, 0, len(degraded))
	for _, d := range degraded {
		degs = append(degs, d)
	}
	sort.Slice(degs, func(i, j int) bool { return degs[i].Store < degs[j].Store })
	return stats, degs
}

// merge folds one leg segment's hits, discovered at hop, into the slot: an
// arrival that beats the key's best probability updates it and joins the
// next frontier; the rest are counted and dropped. It returns the dropped
// count.
func (s *originSlot) merge(hits []wire.RemoteHit, hop int) (suppressed int) {
	for _, h := range hits {
		gk, err := core.ParseGlobalKey(h.Key)
		if err != nil {
			continue // a peer speaking garbage cannot poison the merge
		}
		old, seen := s.best[gk]
		if seen && h.Prob <= old.Prob {
			suppressed++
			continue
		}
		dist := hop
		if seen && old.Dist < hop {
			dist = old.Dist
		}
		s.best[gk] = aindex.Hit{Key: gk, Prob: h.Prob, Dist: dist}
		if h.Prob > s.frontier[gk] {
			s.frontier[gk] = h.Prob
		}
	}
	return suppressed
}

// RoutePolystore returns poly unchanged: every peer holds a full replica of
// every store, so keyed reads stay local and only reachability is scattered.
// It exists only for benchmark/stack.go, until the ledger assembles its stack
// through server.New.
func RoutePolystore(poly *core.Polystore, _ *Coordinator) (*core.Polystore, error) {
	return poly, nil
}

// PeerStatus is one peer's row in the cluster section of /healthz and
// /stats.
type PeerStatus struct {
	Shard int    `json:"shard"`
	Addr  string `json:"addr"`
	Self  bool   `json:"self,omitempty"`
	// Breaker is the coordinator's circuit view of the peer; absent for
	// self (a peer does not guard itself) and for peers never yet called.
	Breaker *resilience.BreakerStatus `json:"breaker,omitempty"`
	// OwnedRanges counts the hash-space arcs the peer owns; Ranges carries
	// them when the caller asked for detail (/stats does, /healthz doesn't).
	OwnedRanges int     `json:"owned_ranges"`
	Ranges      []Range `json:"ranges,omitempty"`
}

// Status is the cluster section of /healthz and /stats: ring identity plus
// one row per peer.
type Status struct {
	RingVersion uint64       `json:"ring_version"`
	Peers       int          `json:"peers"`
	Vnodes      int          `json:"vnodes"`
	Self        int          `json:"self"`
	PeerList    []PeerStatus `json:"peer_list"`
}

// Status snapshots the cluster for the status pages. includeRanges attaches
// every peer's owned hash arcs (verbose; /stats wants it, /healthz doesn't).
func (c *Coordinator) Status(includeRanges bool) Status {
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
		ranges := c.ring.Ranges(shard)
		ps := PeerStatus{Shard: shard, Addr: addr, Self: shard == c.self, OwnedRanges: len(ranges)}
		if includeRanges {
			ps.Ranges = ranges
		}
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
