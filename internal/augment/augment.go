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
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"quepa/internal/aindex"
	"quepa/internal/cache"
	"quepa/internal/core"
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
}

// Size returns the total number of data objects in the answer.
func (a *Answer) Size() int { return len(a.Original) + len(a.Augmented) }

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

	// cfgMu guards cfg, the configuration Search and AugmentObjects run:
	// SetConfig may swap it while request goroutines are inside them.
	// Readers snapshot the whole Config once (Config()) and work off the
	// copy, so a query runs one coherent configuration end to end.
	cfgMu sync.RWMutex
	cfg   Config

	// reacher, when set, computes plan building's reaches in place of the
	// local index — the cluster coordinator plugs its scatter-gather
	// reachability in here. Set once at startup, before serving.
	reacher Reacher

	// rc, when set, memoizes single-origin augmentation outcomes, each
	// stamped with its origin's component stamp (aindex.Index.Stamp). Stamp
	// validation makes invalidation free: a mutation moves the stamp of the
	// island it touched, so that island's entries become unaddressable and
	// age out of the LRU while every other island's stay valid. Set once at
	// startup, before serving.
	rc *rcache.Cache
}

// Reacher abstracts the A' reachability consulted while planning an
// augmentation: one call for all origins of the request, where result i is
// the reach of origins[i], the stats sum the reaches' work, and the returned
// Degradations name the peers whose legs failed (an open peer breaker yields
// reason "peer-open"), which the augmenter folds into the answer's degraded
// section. On one node the augmenter's own index answers (localReacher); the
// cluster coordinator implements it with one scatter over the sharded index.
// The augmenter reads the results only while it builds its plan.
type Reacher interface {
	ReachScatterMany(ctx context.Context, origins []core.GlobalKey, level int) ([][]aindex.Hit, aindex.ReachStats, []Degradation)
}

// localReacher is the one-node Reacher: every origin's reach runs on the
// augmenter's own index, in one call under one read lock, and appends to
// one hit buffer of the request's pooled sink, so a range search allocates
// no reach result of its own.
type localReacher struct {
	index *aindex.Index
	s     *sink
}

func (r localReacher) ReachScatterMany(_ context.Context, origins []core.GlobalKey, level int) ([][]aindex.Hit, aindex.ReachStats, []Degradation) {
	var stats aindex.ReachStats
	r.s.hitBuf, r.s.reaches = r.index.AppendReachMany(r.s.hitBuf[:0], r.s.reaches[:0], origins, level, &stats)
	return r.s.reaches, stats, nil
}

// SetReacher routes plan building through r instead of the local A' index.
// Call it once during startup, before the augmenter serves queries; the
// local index remains in place for lazy deletion and stats.
func (a *Augmenter) SetReacher(r Reacher) { a.reacher = r }

// SetResultCache installs the outcome memoization cache. Call it once
// during startup, before the augmenter serves queries. A nil cache (the
// default) disables memoization. When a cluster reacher is installed the
// cache serves nothing (outcomes are single-node only).
func (a *Augmenter) SetResultCache(rc *rcache.Cache) { a.rc = rc }

// New creates an augmenter with the given configuration.
func New(poly *core.Polystore, index *aindex.Index, cfg Config) *Augmenter {
	cfg = cfg.withDefaults()
	return &Augmenter{
		poly:  poly,
		index: index,
		cfg:   cfg,
		cache: cache.NewLRU(cfg.CacheSize),
	}
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

// Index exposes the augmenter's A' index.
func (a *Augmenter) Index() *aindex.Index { return a.index }

// Polystore exposes the polystore the augmenter operates on.
func (a *Augmenter) Polystore() *core.Polystore { return a.poly }

// ClearCache empties the cache (cold-cache experiment runs).
func (a *Augmenter) ClearCache() { a.cache.Clear() }

// Search executes a query in augmented mode (Definition 3): the query is
// validated (and possibly rewritten to expose identifiers), executed against
// its database with the local language, and its result is augmented at the
// given level under the augmenter's current configuration. It is
// AppendSearch with a nil dst.
func (a *Augmenter) Search(ctx context.Context, database, query string, level int) (*Answer, error) {
	return a.AppendSearch(ctx, nil, database, query, level)
}

// AppendSearch is Search with the augmentation appended to dst: the
// answer's Augmented is dst extended by the ranked objects, so a caller
// that recycles dst serves a search without allocating its ranked answer.
// A non-nil dst never shares storage with the result cache; with dst nil,
// Augmented may be a memoized outcome, which every reader treats as
// read-only.
func (a *Augmenter) AppendSearch(ctx context.Context, dst []AugmentedObject, database, query string, level int) (*Answer, error) {
	ctx, span := telemetry.StartSpan(ctx, "augment.search")
	defer span.End()
	span.SetAttr("db", database)
	span.SetAttr("q", query)
	span.SetAttr("level", itoa(level))
	store, err := a.poly.Database(database)
	if err != nil {
		return nil, err
	}
	v, err := validator.Validate(ctx, store, query)
	if err != nil {
		return nil, err
	}
	qctx, qspan := telemetry.StartSpan(ctx, "store.query")
	original, err := store.Query(qctx, v.Query)
	if err != nil {
		qspan.Mark(telemetry.FlagError)
		qspan.SetAttr("error", err.Error())
		qspan.End()
		return nil, err
	}
	qspan.SetAttr("objects", itoa(len(original)))
	qspan.End()
	augmented, degraded, err := a.augment(ctx, a.Config(), dst, original, level)
	if err != nil {
		return nil, err
	}
	return &Answer{Original: original, Augmented: augmented, Degraded: degraded}, nil
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
	return a.augment(ctx, a.Config(), nil, origins, level)
}

// augment is AugmentObjects under cfg, one coherent configuration for the
// whole augmentation, with the ranked objects appended to dst.
func (a *Augmenter) augment(ctx context.Context, cfg Config, dst []AugmentedObject, origins []core.Object, level int) (out []AugmentedObject, degraded []Degradation, err error) {
	if level < 0 {
		return nil, nil, fmt.Errorf("augment: negative level %d", level)
	}
	strategy := cfg.Strategy
	ctx, span := telemetry.StartSpan(ctx, "augment.objects")
	defer span.End()
	span.SetAttr("strategy", strategy.String())
	span.SetAttr("level", itoa(level))
	span.SetAttr("origins", itoa(len(origins)))
	start := telemetry.Now()
	// Single-origin, locally-indexed augmentations are whole-outcome
	// memoizable. The origin's component stamp is read before any index or
	// store consultation, so a mutation of its island racing this call
	// leaves the entry unaddressable at the new stamp rather than serving
	// stale data; Rank filters by minProb after the fact, so one entry
	// serves every threshold. Only single-origin outcomes are memoized, so
	// an entry never depends on more than one component. An entry is a
	// slice of the cache's own, never dst, so no caller recycles it.
	var (
		outKey   rcache.Key
		outStamp uint64
		memoize  bool
	)
	if a.rc != nil && a.reacher == nil && len(origins) == 1 {
		outKey = rcache.Key{GK: origins[0].GK, Level: level, Kind: rcache.KindOutcome}
		outStamp = a.index.Stamp(origins[0].GK)
		if v, ok := a.rc.GetOutcome(outKey, outStamp); ok {
			memo := v.([]AugmentedObject)
			if span != nil {
				span.SetAttr("rcache_hits", "1")
				span.SetAttr("fetched", itoa(len(memo)))
			}
			return appendMemo(dst, memo), nil, nil
		}
		memoize = true
	}
	// The sink and its plan come from a pool and go back when augment
	// returns: every strategy has waited for its workers by then (DESIGN
	// §3.15).
	sink := getSink()
	defer sink.release()
	plan := a.buildPlan(ctx, sink, origins, level)
	sink.bind(plan)
	span.SetAttr("keys", itoa(len(plan.order)))
	// Peers whose scatter legs failed degrade the answer exactly like
	// failing stores do — before any fetch work, so even an empty plan
	// reports the peers whose contribution is missing.
	for _, d := range plan.degraded {
		sink.note(ctx, d)
	}
	if len(plan.order) == 0 {
		strategyHist(strategy).Since(start)
		sink.report(span, 0, nil)
		return dst, sink.degradations(), nil
	}
	err = a.schedule(ctx, cfg, plan, sink)
	strategyHist(strategy).Since(start)
	if err != nil {
		if c := strategyErr(strategy); c != nil {
			c.Inc()
		}
		sink.report(span, 0, err)
		return nil, nil, err
	}
	// Only clean outcomes are cacheable: a degraded answer reflects a
	// transient store failure and must not outlive it.
	if memoize && sink.nDegraded.Load() == 0 {
		memo := plan.answer(sink, nil)
		a.rc.PutOutcome(outKey, outStamp, memo)
		out = appendMemo(dst, memo)
	} else {
		out = plan.answer(sink, dst)
	}
	sink.report(span, len(out)-len(dst), nil)
	return out, sink.degradations(), nil
}

// appendMemo appends a memoized outcome to dst; with dst nil it hands out
// the cache's slice itself.
func appendMemo(dst, memo []AugmentedObject) []AugmentedObject {
	if dst == nil {
		return memo
	}
	return append(dst, memo...)
}

// plan is the resolved fetch work of one augmentation, laid out by slot:
// every reached key holds one slot, its position in order and hits, so the
// strategies, the sink and answer address a key by index rather than by a
// map of their own (DESIGN §3.15).
type plan struct {
	// slot maps every reached key to its slot. Origins map to -1: they are
	// never fetched, and a hit on one counts as origins_skipped.
	slot  map[core.GlobalKey]int32
	order []core.GlobalKey // deterministic fetch order, one key per slot
	hits  []aindex.Hit     // best probability and distance per slot
	// byOrigin[i] is order[first:last:last], the keys origin i reached
	// first; the three-index form keeps an append from spilling into the
	// next origin's keys.
	byOrigin [][]core.GlobalKey
	// degraded lists the peers whose scatter legs failed; the augmentation
	// carries them into the answer's degraded section.
	degraded []Degradation
}

// buildPlan asks the reacher for every origin's reach in one call and
// deduplicates the reachable keys, keeping the best probability. Each unique
// key is assigned to the first origin that reaches it, which partitions the
// fetch work for the per-result (outer) strategies. Origins themselves are
// never fetched. The index traversal work is counted into s for the
// augmentation's span.
//
// It runs in two phases. The first collects the reaches; the second
// sums their lengths, sizes the slot arrays once, and deduplicates into
// them. The sum is an upper bound on the key count, exact when no two
// origins share an island. A pooled sink brings its slot map and arrays
// along, emptied; a fresh one sizes its map to the sum too.
func (a *Augmenter) buildPlan(ctx context.Context, s *sink, origins []core.Object, level int) *plan {
	p := &s.plan
	r := a.reacher
	if r == nil {
		r = localReacher{a.index, s}
	}
	gks := make([]core.GlobalKey, len(origins))
	for i, o := range origins {
		gks[i] = o.GK
	}
	reaches, st, degraded := r.ReachScatterMany(ctx, gks, level)
	s.reach, p.degraded = st, degraded

	total := 0
	for _, hits := range reaches {
		total += len(hits)
	}
	if p.slot == nil {
		p.slot = make(map[core.GlobalKey]int32, total+len(origins))
	}
	for _, o := range origins {
		p.slot[o.GK] = -1
	}
	p.order = slices.Grow(p.order[:0], total)
	p.hits = slices.Grow(p.hits[:0], total)
	p.byOrigin = slices.Grow(p.byOrigin[:0], len(reaches))[:len(reaches)]
	for i, hits := range reaches {
		first := len(p.order)
		for _, h := range hits {
			slot, seen := p.slot[h.Key]
			switch {
			case !seen:
				p.slot[h.Key] = int32(len(p.order))
				p.order = append(p.order, h.Key)
				p.hits = append(p.hits, h)
			case slot < 0:
				s.skipped++
			default:
				if old := &p.hits[slot]; h.Prob > old.Prob || (h.Prob == old.Prob && h.Dist < old.Dist) {
					*old = h
				}
			}
		}
		last := len(p.order)
		p.byOrigin[i] = p.order[first:last:last]
	}
	return p
}

// answer appends the final ordered augmentation from the filled slots to
// dst. It sorts the slot numbers, not the answer's elements, so the sort
// moves four bytes per swap instead of a whole object, and each element is
// written once, in rank order.
func (p *plan) answer(s *sink, dst []AugmentedObject) []AugmentedObject {
	rank := slices.Grow(s.rank[:0], s.filled)
	for i, ok := range s.has {
		if ok {
			rank = append(rank, int32(i))
		}
	}
	s.rank = rank
	slices.SortFunc(rank, func(x, y int32) int {
		if px, py := p.hits[x].Prob, p.hits[y].Prob; px != py {
			if px > py {
				return -1
			}
			return 1
		}
		return p.order[x].Compare(p.order[y])
	})
	out := slices.Grow(dst, len(rank))
	for _, i := range rank {
		out = append(out, AugmentedObject{Object: s.objects[i], Prob: p.hits[i].Prob, Dist: p.hits[i].Dist})
	}
	return out
}

// dist returns the hop distance at which the plan reached gk (0 if unknown).
func (p *plan) dist(gk core.GlobalKey) int {
	if i, ok := p.slot[gk]; ok && i >= 0 {
		return p.hits[i].Dist
	}
	return 0
}

// groupDist returns the smallest hop distance across a batch group, the
// level attributed to a degradation that drops the whole group.
func (p *plan) groupDist(g group, keys []string) int {
	min := -1
	for _, k := range keys {
		if d := p.dist(core.NewGlobalKey(g.database, g.collection, k)); min < 0 || d < min {
			min = d
		}
	}
	return max(min, 0)
}

// eachGroup cuts the plan's keys into per-collection batch groups of at most
// batchSize keys: a group is emitted the moment it fills, and the incomplete
// ones at the end in the deterministic order of their collection's first
// appearance. emit returning false stops the walk. Each group's slice is
// sized once, to the batch size or the keys left in the plan, whichever is
// smaller, and is a fresh allocation: a timed-out wire call may still read
// it. A plan reaches a few (database, collection) pairs, so the open groups
// are a short slice searched linearly, on the stack up to openGroups of them.
func (p *plan) eachGroup(batchSize int, emit func(group, []string) bool) {
	type open struct {
		g    group
		keys []string
	}
	var buf [openGroups]open
	groups := buf[:0]
	for i, gk := range p.order {
		j := 0
		for j < len(groups) && (groups[j].g.collection != gk.Collection || groups[j].g.database != gk.Database) {
			j++
		}
		if j == len(groups) {
			groups = append(groups, open{g: group{database: gk.Database, collection: gk.Collection}})
		}
		o := &groups[j]
		if o.keys == nil {
			o.keys = make([]string, 0, min(batchSize, len(p.order)-i))
		}
		o.keys = append(o.keys, gk.Key)
		if len(o.keys) < batchSize {
			continue
		}
		keys := o.keys
		o.keys = nil
		if !emit(o.g, keys) {
			return
		}
	}
	for _, o := range groups {
		if o.keys != nil && !emit(o.g, o.keys) {
			return
		}
	}
}

// openGroups is the (database, collection) pairs eachGroup tracks without a
// heap allocation.
const openGroups = 8

// sink collects fetched objects from concurrent workers, the stores whose
// contribution had to be dropped, and the augmentation's counts, which
// report sets on its span as it ends. Objects land in the plan's slots (bind).
type sink struct {
	mu sync.Mutex
	// slot is the plan's key-to-slot map, read-only once bound; objects
	// and has hold each slot's fetched object and its presence flag, and
	// filled counts the set flags.
	slot    map[core.GlobalKey]int32
	objects []core.Object
	has     []bool
	filled  int
	// nDegraded counts degraded stores so the per-key isDegraded probe on
	// the healthy path (the overwhelmingly common one) is a single atomic
	// load instead of a mutex acquisition.
	nDegraded atomic.Int32
	degraded  map[string]Degradation // lazily allocated; keyed by store

	// A' work of plan building, counted by buildPlan alone.
	reach   aindex.ReachStats
	skipped int
	// hitBuf holds every origin's reach hits back to back, and reaches
	// their per-origin subslices, when the local index answers
	// (localReacher). buildPlan copies what it keeps into the plan.
	hitBuf  []aindex.Hit
	reaches [][]aindex.Hit
	// plan is the storage buildPlan fills, so one allocation holds the
	// augmentation's plan and its sink.
	plan plan
	// rank is answer's scratch: the filled slots in rank order.
	rank []int32
	// Cache traffic, counted by the strategy workers.
	cacheHits, cacheMisses atomic.Int64
}

// sinkPool recycles sinks with their plans: the reach hit buffer, the slot
// map, order, hits, byOrigin, objects, has and rank are a range
// augmentation's largest per-request allocations (DESIGN §3.15). A pooled
// sink is empty: release clears everything it held.
var sinkPool = sync.Pool{New: func() any { return new(sink) }}

// maxPooledKeys bounds the plans whose storage goes back to the pool: a map
// never shrinks, so one huge augmentation must not make every later request
// clear its buckets.
const maxPooledKeys = 4096

func getSink() *sink { return sinkPool.Get().(*sink) }

// release empties s and returns it to the pool. The caller must be the
// augmentation's last user of s: every strategy worker has returned, and no
// slice of the sink was handed to a store (a timed-out wire call may still
// read those, so eachGroup's key slices and fetchGroup's missing are never
// sink storage).
func (s *sink) release() {
	if s.reset() {
		sinkPool.Put(s)
	}
}

// reset empties s for another augmentation, keeping its storage, and
// reports whether that storage is small enough to pool.
func (s *sink) reset() bool {
	p := &s.plan
	if len(p.order) > maxPooledKeys || len(s.hitBuf) > maxPooledKeys {
		return false
	}
	clear(s.hitBuf)
	clear(s.reaches)
	clear(p.slot)
	clear(p.order)
	clear(p.hits)
	clear(p.byOrigin)
	clear(s.objects)
	clear(s.has)
	*s = sink{
		plan:    plan{slot: p.slot, order: p.order[:0], hits: p.hits[:0], byOrigin: p.byOrigin[:0]},
		hitBuf:  s.hitBuf[:0],
		reaches: s.reaches[:0],
		objects: s.objects[:0], has: s.has[:0], rank: s.rank[:0],
	}
	return true
}

// bind gives the sink one slot per key of p, empty. It runs before any
// strategy worker starts. A pooled sink's arrays are all zero (release), so
// reslicing them is enough.
func (s *sink) bind(p *plan) {
	s.slot = p.slot
	n := len(p.order)
	s.objects = slices.Grow(s.objects[:0], n)[:n]
	s.has = slices.Grow(s.has[:0], n)[:n]
}

// add files each object in the slot of its own key, under one lock
// acquisition. An object whose key holds no slot is dropped: an origin, or a
// key the store returned without being asked for it. Neither was reached
// through A', so Definition 2 gives it no probability to rank it by.
func (s *sink) add(objs ...core.Object) {
	s.mu.Lock()
	s.putLocked(objs)
	s.mu.Unlock()
}

func (s *sink) putLocked(objs []core.Object) {
	for _, o := range objs {
		i, ok := s.slot[o.GK]
		if !ok || i < 0 {
			continue
		}
		if !s.has[i] {
			s.has[i] = true
			s.filled++
		}
		s.objects[i] = o
	}
}

// addBatch files a batch fetch's objects and returns, from the same lock
// hold, the asked keys whose slots are still empty: the keys the store no
// longer has. The returned slice is nil unless some key is gone.
func (s *sink) addBatch(objs []core.Object, database, collection string, asked []string) (gone []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.putLocked(objs)
	for _, k := range asked {
		if i, ok := s.slot[core.NewGlobalKey(database, collection, k)]; ok && i >= 0 && !s.has[i] {
			gone = append(gone, k)
		}
	}
	return gone
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
// counter, the tail-sampling span flag and one degraded.<store> attribute
// per store. It is the shared marking path of absorb and of plan-level
// scatter degradations.
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
		// A degraded answer is exactly what tail sampling wants to keep, no
		// matter how fast the request finished without the dropped store.
		if sp := telemetry.SpanFromContext(ctx); sp != nil {
			sp.Mark(telemetry.FlagDegraded)
			sp.SetAttr("degraded."+d.Store, d.Reason)
			sp.SetAttr("degraded_level."+d.Store, itoa(d.Level))
		}
	}
}

// report sets the augmentation's counts on its span, each once and only
// when non-zero, plus the fetched object count and the aborting error.
func (s *sink) report(span *telemetry.Span, fetched int, err error) {
	if span == nil {
		return
	}
	for _, c := range [...]struct {
		key string
		n   int64
	}{
		{"index_nodes", int64(s.reach.Nodes)},
		{"index_edges", int64(s.reach.Edges)},
		{"origins_skipped", int64(s.skipped)},
		{"cache_hits", s.cacheHits.Load()},
		{"cache_misses", s.cacheMisses.Load()},
		{"fetched", int64(fetched)},
	} {
		if c.n != 0 {
			span.SetAttr(c.key, strconv.FormatInt(c.n, 10))
		}
	}
	if err != nil {
		span.SetAttr("error", err.Error())
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

// fetchStore pays one store round trip for gk and feeds the object cache
// when it has a capacity. An authoritative miss lazily deletes gk (forget).
func (a *Augmenter) fetchStore(ctx context.Context, gk core.GlobalKey) (core.Object, bool, error) {
	cached := a.cache.Capacity() > 0
	obj, err := a.fetch(ctx, gk)
	if err != nil {
		if errors.Is(err, core.ErrNotFound) {
			a.forget(ctx, gk)
			return core.Object{}, false, nil
		}
		return core.Object{}, false, err
	}
	if cached {
		a.cache.Put(obj)
	}
	return obj, true, nil
}

// forget applies lazy deletion (§III-C) to gk, a key its store no longer
// has: the key leaves A', so no later reach returns it, and, when it has a
// capacity, the object cache. It is the one thing a miss does.
func (a *Augmenter) forget(ctx context.Context, gk core.GlobalKey) {
	a.index.RemoveObjectCtx(ctx, gk)
	if a.cache.Capacity() > 0 {
		a.cache.Remove(gk)
	}
}

// fetch is one store round trip for gk, under a store.fetch span when the
// caller is traced: "objects" 1 when found, "error" when the store failed
// (an authoritative miss is not a failure). Untraced callers pay no span.
func (a *Augmenter) fetch(ctx context.Context, gk core.GlobalKey) (core.Object, error) {
	if telemetry.SpanFromContext(ctx) == nil {
		return a.poly.Fetch(ctx, gk)
	}
	fctx, sp := telemetry.StartSpan(ctx, "store.fetch")
	defer sp.End()
	sp.SetAttr("store", gk.Database)
	obj, err := a.poly.Fetch(fctx, gk)
	switch {
	case err == nil:
		sp.SetAttr("objects", "1")
	case !errors.Is(err, core.ErrNotFound):
		sp.Mark(telemetry.FlagError)
		sp.SetAttr("error", err.Error())
	}
	return obj, err
}

// sweepBuf bounds the stack buffer one cache sweep flushes hits from.
const sweepBuf = 32

// sweepCache probes the cache for every key of one origin's list up front
// (fetchKeys), bulk-adding hits to the sink and returning the keys that
// missed (in input order). On a warm cache an entire key list resolves here:
// no worker goroutines are ever spawned, no per-key sink locking happens,
// and the returned slice is nil. A disabled cache (capacity 0) is not
// probed: every key is a miss, and keys itself is returned, uncounted.
func (a *Augmenter) sweepCache(ctx context.Context, keys []core.GlobalKey, s *sink) []core.GlobalKey {
	if a.cache.Capacity() == 0 {
		return keys
	}
	var buf [sweepBuf]core.Object
	n, hits := 0, 0
	var misses []core.GlobalKey
	for i, gk := range keys {
		if obj, ok := a.cache.Get(gk); ok {
			buf[n] = obj
			n++
			hits++
			if n == sweepBuf {
				s.add(buf[:n]...)
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
		s.add(buf[:n]...)
	}
	s.cacheHits.Add(int64(hits))
	s.cacheMisses.Add(int64(len(misses)))
	return misses
}

// fetchGroup retrieves a group of keys belonging to one database and
// collection with a single batched query, serving what the object cache holds
// first and lazily deleting keys the store no longer has. A disabled object
// cache (capacity 0) is neither probed nor fed: every key goes to the store.
func (a *Augmenter) fetchGroup(ctx context.Context, database, collection string, keys []string, s *sink) error {
	cached := a.cache.Capacity() > 0
	missing := keys
	if cached {
		var buf [sweepBuf]core.Object
		n, hits := 0, 0
		missing = nil
		for i, k := range keys {
			if obj, ok := a.cache.Get(core.NewGlobalKey(database, collection, k)); ok {
				buf[n] = obj
				n++
				hits++
				if n == sweepBuf {
					s.add(buf[:n]...)
					n = 0
				}
				continue
			}
			if missing == nil {
				missing = make([]string, 0, len(keys)-i)
			}
			missing = append(missing, k)
		}
		if n > 0 {
			s.add(buf[:n]...)
		}
		s.cacheHits.Add(int64(hits))
		s.cacheMisses.Add(int64(len(keys) - hits))
	}
	if len(missing) == 0 {
		return nil
	}
	fctx := ctx
	var sp *telemetry.Span
	if telemetry.SpanFromContext(ctx) != nil {
		fctx, sp = telemetry.StartSpan(ctx, "store.fetchbatch")
		sp.SetAttr("store", database)
		sp.SetAttr("keys", strconv.Itoa(len(missing)))
	}
	objs, err := a.poly.FetchBatch(fctx, database, collection, missing)
	if err != nil {
		if sp != nil {
			sp.Mark(telemetry.FlagError)
			sp.SetAttr("error", err.Error())
			sp.End()
		}
		return err
	}
	if cached {
		for _, o := range objs {
			a.cache.Put(o)
		}
	}
	for _, k := range s.addBatch(objs, database, collection, missing) {
		a.forget(fctx, core.NewGlobalKey(database, collection, k))
	}
	if sp != nil {
		sp.SetAttr("objects", itoa(len(objs)))
		sp.End()
	}
	return nil
}

// Rank presents the augmentation the way the paper's interface does: the
// probability of each element drives colors and rankings. It returns the
// augmented objects with probability at least minProb, truncated to the
// topK strongest (topK <= 0 means no truncation). The result is a prefix of
// a.Augmented, not a copy, and is read-only: it shares its backing array
// with the answer and so with the dst it was appended to, or, for a
// memoized outcome searched with a nil dst, with the result cache's entry.
// Its capacity ends at its length, so an append copies.
func (a *Answer) Rank(minProb float64, topK int) []AugmentedObject {
	n := 0
	// Augmented answers are probability-ordered: everything after the first
	// object below the threshold is below it too.
	for n < len(a.Augmented) && a.Augmented[n].Prob >= minProb && (topK <= 0 || n < topK) {
		n++
	}
	return a.Augmented[:n:n]
}
