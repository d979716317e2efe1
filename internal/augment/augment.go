// Package augment implements the query augmentation operator of QUEPA
// (Section II) and its six execution strategies (Section IV): SEQUENTIAL,
// BATCH, INNER, OUTER, OUTER-BATCH and OUTER-INNER.
//
// Augmented search (Definition 3) expands the result of a local query with
// the related data objects reachable through the A' index at a given level,
// ordered by probability. Augmented exploration (Definition 4) applies the
// level-0 operator step by step under user guidance; see Exploration.
//
// The strategies differ only in how they schedule the object fetches against
// the polystore — one by one, grouped per store (batching), parallel per
// result (outer concurrency), parallel within a result's expansion (inner
// concurrency), or combinations — and therefore produce identical answers,
// a property the tests enforce.
package augment

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"quepa/internal/aindex"
	"quepa/internal/cache"
	"quepa/internal/coalesce"
	"quepa/internal/core"
	"quepa/internal/explain"
	"quepa/internal/rcache"
	"quepa/internal/resilience"
	"quepa/internal/telemetry"
	"quepa/internal/validator"
)

// Strategy selects one of the augmenter implementations of Section IV.
type Strategy int

// The six augmenters of the paper.
const (
	Sequential Strategy = iota
	Batch
	Inner
	Outer
	OuterBatch
	OuterInner
)

// Strategies lists all strategies in a stable order (useful for sweeps).
var Strategies = []Strategy{Sequential, Batch, Inner, Outer, OuterBatch, OuterInner}

// String returns the paper's name for the strategy.
func (s Strategy) String() string {
	switch s {
	case Sequential:
		return "SEQUENTIAL"
	case Batch:
		return "BATCH"
	case Inner:
		return "INNER"
	case Outer:
		return "OUTER"
	case OuterBatch:
		return "OUTER-BATCH"
	case OuterInner:
		return "OUTER-INNER"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy resolves a strategy name (case-insensitive, '-' and '_'
// interchangeable).
func ParseStrategy(name string) (Strategy, error) {
	switch strings.ToUpper(strings.ReplaceAll(name, "_", "-")) {
	case "SEQUENTIAL":
		return Sequential, nil
	case "BATCH":
		return Batch, nil
	case "INNER":
		return Inner, nil
	case "OUTER":
		return Outer, nil
	case "OUTER-BATCH", "OUTERBATCH":
		return OuterBatch, nil
	case "OUTER-INNER", "OUTERINNER":
		return OuterInner, nil
	default:
		return 0, fmt.Errorf("augment: unknown strategy %q", name)
	}
}

// Concurrent reports whether the strategy uses worker goroutines.
func (s Strategy) Concurrent() bool {
	switch s {
	case Inner, Outer, OuterBatch, OuterInner:
		return true
	}
	return false
}

// Batched reports whether the strategy groups keys into batch fetches.
func (s Strategy) Batched() bool { return s == Batch || s == OuterBatch }

// Config is a QUEPA configuration (Section V): an augmenter plus its
// parameters. Zero values select sensible defaults.
type Config struct {
	Strategy    Strategy
	BatchSize   int // max global keys per batched query (BATCH, OUTER-BATCH)
	ThreadsSize int // max simultaneous fetch goroutines (concurrent strategies)
	CacheSize   int // LRU capacity; 0 disables caching

	// DisableCoalesce turns off in-flight request coalescing, making every
	// cache miss pay its own store round trip. The zero value (coalescing
	// on) is right for production; the equivalence tests sweep both settings
	// and the ablation benchmarks measure the difference.
	DisableCoalesce bool
}

// Defaults used when Config fields are left zero or negative.
const (
	DefaultBatchSize   = 64
	DefaultThreadsSize = 4
)

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = DefaultBatchSize
	}
	if c.ThreadsSize <= 0 {
		c.ThreadsSize = DefaultThreadsSize
	}
	if c.CacheSize < 0 {
		c.CacheSize = 0
	}
	return c
}

// String renders the configuration compactly for logs and run records.
func (c Config) String() string {
	return fmt.Sprintf("%s(batch=%d,threads=%d,cache=%d)", c.Strategy, c.BatchSize, c.ThreadsSize, c.CacheSize)
}

// AugmentedObject is one element of an augmented answer: a data object, the
// probability that it is related to the original result, and the hop
// distance at which the A' index reached it (0 marks original results).
type AugmentedObject struct {
	Object core.Object
	Prob   float64
	Dist   int
}

// Answer is the result of an augmented search: the local query's own result
// plus the augmentation, ordered by decreasing probability. Degraded lists
// the stores whose contribution was dropped — augmentation is best-effort,
// so a failing store yields a partial answer rather than an error.
type Answer struct {
	Original  []core.Object
	Augmented []AugmentedObject
	Degraded  []Degradation
	// Memoized reports an augmentation served whole from the result cache's
	// outcome entry: no strategy ran, so its time says nothing about one.
	Memoized bool
}

// Size returns the total number of data objects in the answer.
func (a *Answer) Size() int { return len(a.Original) + len(a.Augmented) }

// Partial reports whether any store's contribution was dropped.
func (a *Answer) Partial() bool { return len(a.Degraded) > 0 }

// Degradation records one store dropped from an answer: which store, why
// ("breaker_open", "timeout", or the store's error), and the augmentation
// level at which it failed.
type Degradation struct {
	Store  string `json:"store"`
	Reason string `json:"reason"`
	Level  int    `json:"level"`
}

// degradeReason classifies a store failure for the degraded section.
func degradeReason(err error) string {
	var ne net.Error
	switch {
	// A cluster peer's breaker is checked before the store-level one: the
	// coordinator wraps its rejections in ErrPeerOpen so a burning peer
	// reads "peer-open" in the degraded section, distinct from a local
	// store's "breaker_open".
	case errors.Is(err, resilience.ErrPeerOpen):
		return "peer-open"
	case errors.Is(err, resilience.ErrOpen):
		return "breaker_open"
	case errors.Is(err, context.DeadlineExceeded), errors.As(err, &ne) && ne.Timeout():
		return "timeout"
	default:
		return err.Error()
	}
}

// Augmenter orchestrates augmented query answering over a polystore and an
// A' index (the Augmenter component of Fig. 2). It is safe for concurrent
// use; the cache is shared across queries, as in the paper's design.
type Augmenter struct {
	poly  *core.Polystore
	index *aindex.Index
	cache *cache.LRU

	// flight coalesces concurrent fetches of the same global key: N
	// in-flight queries augmenting one hot object cost one store round trip.
	flight *coalesce.Group
	// fetchFn is fetchStore bound once at construction, so joining or
	// leading a flight never allocates a per-call closure.
	fetchFn coalesce.Fetch
	// neg remembers keys recently confirmed missing, so lazy-deletion
	// misses don't stampede the stores while the A' index catches up.
	neg *coalesce.NegativeCache

	// cfgMu guards cfg, the configuration Search and AugmentObjects run:
	// SetConfig may swap it while request goroutines are inside them.
	// Readers snapshot the whole Config once (Config()) and work off the
	// copy, so a query runs one coherent configuration end to end. SearchWith
	// bypasses it with a configuration chosen per query.
	cfgMu sync.RWMutex
	cfg   Config

	// reacher, when set, replaces the local index consultation in plan
	// building — the cluster coordinator plugs its scatter-gather
	// reachability in here. Set once at startup, before serving.
	reacher Reacher

	// rc, when set, memoizes Reach result sets and single-origin
	// augmentation outcomes against the index epoch. Epoch validation makes
	// invalidation free: every mutator bumps the epoch, so stale entries
	// become unaddressable and age out of the LRU. Set once at startup,
	// before serving.
	rc *rcache.Cache
}

// Reacher abstracts the A' reachability consulted while planning an
// augmentation. The cluster coordinator implements it with one scatter-gather
// traversal over the sharded index for all origins of the request: result i
// is the reach of origins[i], the stats sum the traversal work, and the
// returned Degradations report shards dropped mid-traversal (an open peer
// breaker yields reason "peer-open"), which the augmenter folds into the
// answer's degraded section.
type Reacher interface {
	ReachScatterMany(ctx context.Context, origins []core.GlobalKey, level int) ([][]aindex.Hit, aindex.ReachStats, []Degradation)
}

// SetReacher routes plan building through r instead of the local A' index.
// Call it once during startup, before the augmenter serves queries; the
// local index remains in place for lazy deletion and stats.
func (a *Augmenter) SetReacher(r Reacher) { a.reacher = r }

// SetResultCache installs the reach/outcome memoization cache. Call it once
// during startup, before the augmenter serves queries. A nil cache (the
// default) disables memoization. When a cluster reacher is installed the
// augmenter leaves reach memoization to the coordinator, which keys entries
// by the scatter epoch; the local cache then only serves outcome entries.
func (a *Augmenter) SetResultCache(rc *rcache.Cache) { a.rc = rc }

// ResultCache exposes the reach/outcome memoization cache (nil when
// disabled), for the status pages and tests.
func (a *Augmenter) ResultCache() *rcache.Cache { return a.rc }

// New creates an augmenter with the given configuration.
func New(poly *core.Polystore, index *aindex.Index, cfg Config) *Augmenter {
	cfg = cfg.withDefaults()
	a := &Augmenter{
		poly:   poly,
		index:  index,
		cfg:    cfg,
		cache:  cache.NewLRU(cfg.CacheSize),
		flight: coalesce.NewGroup(),
		neg:    coalesce.NewNegativeCache(0, 0), // package defaults
	}
	a.fetchFn = a.fetchStore
	return a
}

// Config returns the augmenter's current configuration.
func (a *Augmenter) Config() Config {
	a.cfgMu.RLock()
	defer a.cfgMu.RUnlock()
	return a.cfg
}

// SetConfig swaps strategy and parameters. The cache is resized, not
// dropped: the adaptive optimizer adjusts CACHE_SIZE in small increments
// precisely to keep its content useful (Section V, Phase 3). In-flight
// queries keep the configuration they snapshotted at entry.
func (a *Augmenter) SetConfig(cfg Config) {
	cfg = cfg.withDefaults()
	a.cfgMu.Lock()
	a.cfg = cfg
	a.cfgMu.Unlock()
	a.cache.Resize(cfg.CacheSize)
}

// Cache exposes the augmenter's cache (for stats and tests).
func (a *Augmenter) Cache() *cache.LRU { return a.cache }

// Index exposes the augmenter's A' index.
func (a *Augmenter) Index() *aindex.Index { return a.index }

// Polystore exposes the polystore the augmenter operates on.
func (a *Augmenter) Polystore() *core.Polystore { return a.poly }

// ClearCache empties the cache (cold-cache experiment runs).
func (a *Augmenter) ClearCache() { a.cache.Clear() }

// Search executes a query in augmented mode (Definition 3): the query is
// validated (and possibly rewritten to expose identifiers), executed against
// its database with the local language, and its result is augmented at the
// given level under the augmenter's current configuration.
func (a *Augmenter) Search(ctx context.Context, database, query string, level int) (*Answer, error) {
	return a.SearchWith(ctx, a.Config(), database, query, level)
}

// SearchWith is Search under a configuration chosen for this one query — the
// adaptive optimizer's decision travels with its request instead of through
// the shared configuration. cfg.CacheSize is not applied: the object cache is
// shared, and resizing it is the caller's business.
func (a *Augmenter) SearchWith(ctx context.Context, cfg Config, database, query string, level int) (*Answer, error) {
	ctx, span := telemetry.StartSpan(ctx, "augment.search")
	defer span.End()
	span.SetAttr("db", database)
	span.SetAttr("level", itoa(level))
	rec := explain.FromContext(ctx)
	rec.SetQuery(database, query, level)
	store, err := a.poly.Database(database)
	if err != nil {
		return nil, err
	}
	v, err := validator.Validate(ctx, store, query)
	if err != nil {
		return nil, err
	}
	qctx, qspan := telemetry.StartSpan(ctx, "store.query")
	var qstart time.Time
	if rec != nil {
		qstart = time.Now()
	}
	original, err := store.Query(qctx, v.Query)
	qspan.End()
	if rec != nil {
		rec.LocalQuery(database, len(original), time.Since(qstart), err != nil)
	}
	if err != nil {
		return nil, err
	}
	qspan.SetAttr("objects", itoa(len(original)))
	augmented, degraded, memoized, err := a.augment(ctx, cfg.withDefaults(), original, level)
	if err != nil {
		return nil, err
	}
	return &Answer{Original: original, Augmented: augmented, Degraded: degraded, Memoized: memoized}, nil
}

// AugmentObjects applies the augmentation construct of level n to a set of
// objects (the α operator of Definition 2 extended to sets) and returns the
// retrieved objects ordered by decreasing probability. Objects that are in
// the A' index but no longer in the polystore are dropped and lazily removed
// from the index.
//
// Augmentation is best-effort: a store that errors (or whose circuit breaker
// is open) has its contribution dropped and reported in the returned
// Degradation list while the healthy stores' results come back intact. Only
// context cancellation and deadline expiry abort the whole call.
func (a *Augmenter) AugmentObjects(ctx context.Context, origins []core.Object, level int) ([]AugmentedObject, []Degradation, error) {
	out, degraded, _, err := a.augment(ctx, a.Config(), origins, level)
	return out, degraded, err
}

// augment is AugmentObjects under cfg, one coherent configuration for the
// whole augmentation. memoized reports an outcome served whole from the
// result cache, which no strategy ran.
func (a *Augmenter) augment(ctx context.Context, cfg Config, origins []core.Object, level int) (out []AugmentedObject, degraded []Degradation, memoized bool, err error) {
	if level < 0 {
		return nil, nil, false, fmt.Errorf("augment: negative level %d", level)
	}
	strategy := cfg.Strategy
	ctx, span := telemetry.StartSpan(ctx, "augment.objects")
	defer span.End()
	span.SetAttr("strategy", strategy.String())
	rec := explain.FromContext(ctx)
	var recStart time.Time
	if rec != nil {
		rec.BeginAugmentation(level, len(origins), strategy.String())
		recStart = time.Now()
	}
	start := telemetry.Now()
	// Single-origin, locally-indexed augmentations are whole-outcome
	// memoizable. The epoch is read before any index or store consultation,
	// so a mutation racing this call leaves the entry unaddressable at the
	// new epoch rather than serving stale data; Rank filters by minProb
	// after the fact, so one entry serves every threshold.
	var (
		outKey   rcache.Key
		outEpoch uint64
		memoize  bool
	)
	if a.rc != nil && a.reacher == nil && len(origins) == 1 {
		outKey = rcache.Key{GK: origins[0].GK, Level: level, Kind: rcache.KindOutcome}
		outEpoch = a.index.Epoch()
		if v, ok := a.rc.GetOutcome(outKey, outEpoch); ok {
			out := v.([]AugmentedObject)
			rec.RcacheHits(1)
			if rec != nil {
				rec.EndAugmentation(len(out), time.Since(recStart), nil)
			}
			return out, nil, true, nil
		}
		memoize = true
	}
	plan := a.buildPlan(ctx, rec, origins, level)
	span.SetAttr("origins", itoa(len(origins)))
	span.SetAttr("keys", itoa(len(plan.order)))
	sink := newSink()
	// Shards a scatter-gather reach dropped degrade the answer exactly like
	// failing stores do — before any fetch work, so even an empty plan
	// reports the peers whose contribution is missing.
	for _, d := range plan.degraded {
		sink.note(ctx, d)
	}
	if len(plan.order) == 0 {
		strategyHist(strategy).Since(start)
		if rec != nil {
			rec.EndAugmentation(0, time.Since(recStart), nil)
		}
		return nil, sink.degradations(), false, nil
	}
	switch cfg.Strategy {
	case Sequential:
		err = a.runSequential(ctx, cfg, plan, sink)
	case Batch:
		err = a.runBatch(ctx, cfg, plan, sink)
	case Inner:
		err = a.runInner(ctx, cfg, plan, sink)
	case Outer:
		err = a.runOuter(ctx, cfg, plan, sink)
	case OuterBatch:
		err = a.runOuterBatch(ctx, cfg, plan, sink)
	case OuterInner:
		err = a.runOuterInner(ctx, cfg, plan, sink)
	default:
		err = fmt.Errorf("augment: unknown strategy %v", cfg.Strategy)
	}
	strategyHist(strategy).Since(start)
	if err != nil {
		if c := strategyErr(strategy); c != nil {
			c.Inc()
		}
		if rec != nil {
			rec.EndAugmentation(0, time.Since(recStart), err)
		}
		return nil, nil, false, err
	}
	out = plan.answer(sink)
	// Only clean outcomes are cacheable: a degraded answer reflects a
	// transient store failure and must not outlive it.
	if memoize && sink.nDegraded.Load() == 0 {
		a.rc.PutOutcome(outKey, outEpoch, out)
	}
	if rec != nil {
		rec.EndAugmentation(len(out), time.Since(recStart), nil)
	}
	return out, sink.degradations(), false, nil
}

// plan is the resolved fetch work of one augmentation: the unique global
// keys to retrieve, their best probabilities and distances, and the
// per-origin partition the outer/inner strategies parallelize over.
type plan struct {
	hits     map[core.GlobalKey]aindex.Hit
	order    []core.GlobalKey   // deterministic fetch order
	byOrigin [][]core.GlobalKey // keys grouped by the origin that reached them first
	// degraded lists shards a scatter-gather reach dropped mid-traversal;
	// the augmentation carries them into the answer's degraded section.
	degraded []Degradation
}

// buildPlan consults the A' index for every origin and deduplicates the
// reachable keys, keeping the best probability. Each unique key is assigned
// to the first origin that reaches it, which partitions the fetch work for
// the per-result (outer) strategies. Origins themselves are never fetched.
// With a non-nil recorder, the index traversal work is counted and
// attributed to the profiled query.
func (a *Augmenter) buildPlan(ctx context.Context, rec *explain.Recorder, origins []core.Object, level int) *plan {
	p := &plan{hits: map[core.GlobalKey]aindex.Hit{}}
	originSet := make(map[core.GlobalKey]bool, len(origins))
	for _, o := range origins {
		originSet[o.GK] = true
	}
	var nodes, edges, skipped, snapshots, rcacheHits int
	// Reach memoization is local-index only: the cluster coordinator keys
	// its own entries by the scatter epoch. The epoch is read once before
	// any traversal, so a mutation racing the loop strands the entries at
	// the pre-mutation epoch instead of mislabeling post-mutation results.
	useRcache := a.rc != nil && a.reacher == nil
	var reachEpoch uint64
	if useRcache {
		reachEpoch = a.index.Epoch()
	}
	// A cluster reacher takes the whole request in one call, so its round
	// trips group by destination peer instead of multiplying by origin.
	var scattered [][]aindex.Hit
	if a.reacher != nil {
		gks := make([]core.GlobalKey, len(origins))
		for i, o := range origins {
			gks[i] = o.GK
		}
		var st aindex.ReachStats
		scattered, st, p.degraded = a.reacher.ReachScatterMany(ctx, gks, level)
		nodes, edges = st.Nodes, st.Edges
	}
	for i, o := range origins {
		var mine []core.GlobalKey
		var hits []aindex.Hit
		switch {
		case a.reacher != nil:
			hits = scattered[i]
		case useRcache:
			rkey := rcache.Key{GK: o.GK, Level: level, Kind: rcache.KindReach}
			if cached, _, ok := a.rc.GetReach(rkey, reachEpoch); ok {
				hits = cached
				rcacheHits++
				break
			}
			var st aindex.ReachStats
			hits, st = a.index.ReachWithStats(o.GK, level)
			nodes += st.Nodes
			edges += st.Edges
			if st.Snapshot {
				snapshots++
			}
			a.rc.PutReach(rkey, reachEpoch, hits, st)
		case rec == nil:
			hits = a.index.Reach(o.GK, level)
		default:
			var st aindex.ReachStats
			hits, st = a.index.ReachWithStats(o.GK, level)
			nodes += st.Nodes
			edges += st.Edges
			if st.Snapshot {
				snapshots++
			}
		}
		for _, h := range hits {
			if originSet[h.Key] {
				skipped++
				continue
			}
			old, seen := p.hits[h.Key]
			if !seen {
				p.order = append(p.order, h.Key)
				mine = append(mine, h.Key)
				p.hits[h.Key] = h
				continue
			}
			if h.Prob > old.Prob || (h.Prob == old.Prob && h.Dist < old.Dist) {
				p.hits[h.Key] = h
			}
		}
		p.byOrigin = append(p.byOrigin, mine)
	}
	if rec != nil {
		rec.PlanStats(len(p.order), nodes, edges, skipped)
		rec.SnapshotReaches(snapshots)
		rec.RcacheHits(rcacheHits)
	}
	return p
}

// answer assembles the final ordered augmentation from the fetched objects.
func (p *plan) answer(s *sink) []AugmentedObject {
	out := make([]AugmentedObject, 0, len(s.objects))
	for gk, obj := range s.objects {
		h := p.hits[gk]
		out = append(out, AugmentedObject{Object: obj, Prob: h.Prob, Dist: h.Dist})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prob != out[j].Prob {
			return out[i].Prob > out[j].Prob
		}
		return out[i].Object.GK.Compare(out[j].Object.GK) < 0
	})
	return out
}

// dist returns the hop distance at which the plan reached gk (0 if unknown).
func (p *plan) dist(gk core.GlobalKey) int { return p.hits[gk].Dist }

// groupDist returns the smallest hop distance across a batch group, the
// level attributed to a degradation that drops the whole group.
func (p *plan) groupDist(g group, keys []string) int {
	min := -1
	for _, k := range keys {
		if h, ok := p.hits[core.NewGlobalKey(g.database, g.collection, k)]; ok && (min < 0 || h.Dist < min) {
			min = h.Dist
		}
	}
	if min < 0 {
		min = 0
	}
	return min
}

// sink collects fetched objects from concurrent workers, plus the stores
// whose contribution had to be dropped.
type sink struct {
	mu      sync.Mutex
	objects map[core.GlobalKey]core.Object
	// nDegraded counts degraded stores so the per-key isDegraded probe on
	// the healthy path (the overwhelmingly common one) is a single atomic
	// load instead of a mutex acquisition.
	nDegraded atomic.Int32
	degraded  map[string]Degradation // lazily allocated; keyed by store
}

func newSink() *sink {
	return &sink{objects: map[core.GlobalKey]core.Object{}}
}

func (s *sink) add(objs ...core.Object) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, o := range objs {
		s.objects[o.GK] = o
	}
}

// addAll bulk-inserts a batch of objects under one lock acquisition (the
// cache-sweep fast path).
func (s *sink) addAll(objs []core.Object) {
	s.mu.Lock()
	for _, o := range objs {
		s.objects[o.GK] = o
	}
	s.mu.Unlock()
}

// isDegraded reports whether a store already dropped out, so runners skip
// its remaining keys instead of hammering a failing backend.
func (s *sink) isDegraded(store string) bool {
	if s.nDegraded.Load() == 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.degraded[store]
	return ok
}

// absorb classifies a fetch failure. If the caller's context is dead the
// error propagates and aborts the augmentation; any other store failure
// marks the store degraded (first reason wins) and returns nil so the
// augmentation continues without it.
func (s *sink) absorb(ctx context.Context, store string, level int, err error) error {
	if err == nil {
		return nil
	}
	if ctx.Err() != nil {
		return err
	}
	s.note(ctx, Degradation{Store: store, Reason: degradeReason(err), Level: level})
	return nil
}

// note registers one degradation (first reason per store wins), feeding the
// counter, the explain profile and the tail-sampling span flag. It is the
// shared marking path of absorb and of plan-level scatter degradations.
func (s *sink) note(ctx context.Context, d Degradation) {
	s.mu.Lock()
	_, seen := s.degraded[d.Store]
	if !seen {
		if s.degraded == nil {
			s.degraded = map[string]Degradation{}
		}
		s.degraded[d.Store] = d
		s.nDegraded.Add(1)
	}
	s.mu.Unlock()
	if !seen {
		degradedTotal.Inc()
		explain.FromContext(ctx).Degraded(d.Store, d.Reason, d.Level)
		// A degraded answer is exactly what tail sampling wants to keep, no
		// matter how fast the request finished without the dropped store.
		if sp := telemetry.SpanFromContext(ctx); sp != nil {
			sp.Mark(telemetry.FlagDegraded)
			sp.SetAttr("degraded_store", d.Store)
		}
	}
}

// degradations returns the dropped stores in deterministic order.
func (s *sink) degradations() []Degradation {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.degraded) == 0 {
		return nil
	}
	out := make([]Degradation, 0, len(s.degraded))
	for _, d := range s.degraded {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Store < out[j].Store })
	return out
}

// lookup is THE single-key read path every strategy funnels through: object
// cache, then the miss pipeline (negative cache, coalesced store fetch). The
// boolean reports whether the object exists.
func (a *Augmenter) lookup(ctx context.Context, cfg Config, gk core.GlobalKey) (core.Object, bool, error) {
	if obj, ok := a.cache.Get(gk); ok {
		explain.FromContext(ctx).CacheHits(1)
		return obj, true, nil
	}
	explain.FromContext(ctx).CacheMisses(1)
	return a.fetchMiss(ctx, cfg, gk)
}

// fetchMiss resolves a key the cache does not hold. The negative cache
// answers recently-confirmed-missing keys without a round trip; everything
// else goes to the store under the key's flight, so concurrent misses of one
// hot key cost one round trip. Callers have already accounted the cache miss.
func (a *Augmenter) fetchMiss(ctx context.Context, cfg Config, gk core.GlobalKey) (core.Object, bool, error) {
	if a.neg.Has(gk) {
		explain.FromContext(ctx).NegativeHits(1)
		negativeHitCounter(gk.Database).Inc()
		return core.Object{}, false, nil
	}
	if cfg.DisableCoalesce {
		return a.fetchStore(ctx, gk)
	}
	obj, ok, shared, err := a.flight.Do(ctx, gk, a.fetchFn)
	if shared {
		explain.FromContext(ctx).CoalescedHits(1)
		coalescedHitCounter(gk.Database).Inc()
	}
	return obj, ok, err
}

// fetchStore pays one store round trip for gk, applying lazy deletion on
// authoritative misses and feeding both caches. With coalescing on it is the
// flight body — exactly one caller per in-flight key runs it.
func (a *Augmenter) fetchStore(ctx context.Context, gk core.GlobalKey) (core.Object, bool, error) {
	rec := explain.FromContext(ctx)
	var start time.Time
	if rec != nil {
		start = time.Now()
	}
	// The fetch span is created only under an already-traced caller, so the
	// cache-hit and tracing-disabled paths stay allocation-free.
	fctx := ctx
	var sp *telemetry.Span
	if telemetry.SpanFromContext(ctx) != nil {
		fctx, sp = telemetry.StartSpan(ctx, "store.fetch")
		sp.SetAttr("store", gk.Database)
	}
	obj, err := a.poly.Fetch(fctx, gk)
	if err != nil {
		if errors.Is(err, core.ErrNotFound) {
			if rec != nil {
				rec.StoreOp(gk.Database, "get", 1, 0, time.Since(start), false)
			}
			a.index.RemoveObjectCtx(fctx, gk)
			a.cache.Remove(gk)
			a.neg.Put(gk)
			sp.End()
			return core.Object{}, false, nil
		}
		if rec != nil {
			rec.StoreOp(gk.Database, "get", 1, 0, time.Since(start), true)
		}
		if sp != nil {
			sp.Mark(telemetry.FlagError)
			sp.SetAttr("error", err.Error())
			sp.End()
		}
		return core.Object{}, false, err
	}
	if rec != nil {
		rec.StoreOp(gk.Database, "get", 1, 1, time.Since(start), false)
	}
	a.cache.Put(obj)
	a.neg.Forget(gk)
	sp.End()
	return obj, true, nil
}

// sweepBuf bounds the stack buffer one cache sweep flushes hits from.
const sweepBuf = 32

// sweepCache probes the cache for every key up front, bulk-adding hits to the
// sink and returning the keys that missed (in input order). On a warm cache
// an entire key list resolves here: no worker goroutines are ever spawned,
// no per-key sink locking happens, and the returned slice is nil.
func (a *Augmenter) sweepCache(ctx context.Context, keys []core.GlobalKey, s *sink) []core.GlobalKey {
	var buf [sweepBuf]core.Object
	n, hits := 0, 0
	var misses []core.GlobalKey
	for i, gk := range keys {
		if obj, ok := a.cache.Get(gk); ok {
			buf[n] = obj
			n++
			hits++
			if n == sweepBuf {
				s.addAll(buf[:n])
				n = 0
			}
			continue
		}
		if misses == nil {
			misses = make([]core.GlobalKey, 0, len(keys)-i)
		}
		misses = append(misses, gk)
	}
	if n > 0 {
		s.addAll(buf[:n])
	}
	rec := explain.FromContext(ctx)
	rec.CacheHits(hits)
	rec.CacheMisses(len(misses))
	return misses
}

// fetchGroup retrieves a group of keys belonging to one database and
// collection with a single batched query, consulting the object and negative
// caches first and lazily deleting keys the store no longer has. Batched
// round trips are not coalesced — two concurrent groups rarely carry the
// same key set — but their per-key misses still feed the negative cache, so
// single-key strategies and later batches benefit.
func (a *Augmenter) fetchGroup(ctx context.Context, database, collection string, keys []string, s *sink) error {
	rec := explain.FromContext(ctx)
	var buf [sweepBuf]core.Object
	n, hits, negHits := 0, 0, 0
	missing := keys[:0:0]
	for _, k := range keys {
		gk := core.NewGlobalKey(database, collection, k)
		if obj, ok := a.cache.Get(gk); ok {
			buf[n] = obj
			n++
			hits++
			if n == sweepBuf {
				s.addAll(buf[:n])
				n = 0
			}
			continue
		}
		if a.neg.Has(gk) {
			negHits++
			continue
		}
		missing = append(missing, k)
	}
	if n > 0 {
		s.addAll(buf[:n])
	}
	rec.CacheHits(hits)
	rec.CacheMisses(len(keys) - hits)
	if negHits > 0 {
		rec.NegativeHits(negHits)
		negativeHitCounter(database).Add(uint64(negHits))
	}
	if len(missing) == 0 {
		return nil
	}
	var start time.Time
	if rec != nil {
		start = time.Now()
	}
	fctx := ctx
	var sp *telemetry.Span
	if telemetry.SpanFromContext(ctx) != nil {
		fctx, sp = telemetry.StartSpan(ctx, "store.fetchbatch")
		sp.SetAttr("store", database)
		sp.SetAttr("keys", strconv.Itoa(len(missing)))
	}
	objs, err := a.poly.FetchBatch(fctx, database, collection, missing)
	if rec != nil {
		rec.StoreOp(database, "getbatch", len(missing), len(objs), time.Since(start), err != nil)
	}
	if err != nil {
		if sp != nil {
			sp.Mark(telemetry.FlagError)
			sp.SetAttr("error", err.Error())
			sp.End()
		}
		return err
	}
	found := make(map[string]bool, len(objs))
	for _, o := range objs {
		found[o.GK.Key] = true
		a.cache.Put(o)
		a.neg.Forget(o.GK)
	}
	s.add(objs...)
	for _, k := range missing {
		if !found[k] {
			gk := core.NewGlobalKey(database, collection, k)
			a.index.RemoveObjectCtx(fctx, gk)
			a.cache.Remove(gk)
			a.neg.Put(gk)
		}
	}
	sp.End()
	return nil
}

// Rank presents the augmentation the way the paper's interface does: the
// probability of each element drives colors and rankings. It returns the
// augmented objects with probability at least minProb, truncated to the
// topK strongest (topK <= 0 means no truncation). The receiver is not
// modified.
func (a *Answer) Rank(minProb float64, topK int) []AugmentedObject {
	out := make([]AugmentedObject, 0, len(a.Augmented))
	for _, ao := range a.Augmented {
		if ao.Prob < minProb {
			// Augmented answers are probability-ordered: everything after
			// the first miss is below the threshold too.
			break
		}
		out = append(out, ao)
		if topK > 0 && len(out) == topK {
			break
		}
	}
	return out
}
