package main

import (
	"context"
	"strconv"
	"sync"
	"time"

	"quepa/internal/aindex"
	"quepa/internal/augment"
	"quepa/internal/cluster"
	"quepa/internal/core"
	"quepa/internal/optimizer"
	"quepa/internal/rcache"
	"quepa/internal/resilience"
	"quepa/internal/wal"
	"quepa/internal/wire"
	"quepa/internal/workload"
)

// stack is the serving stack of cmd/quepa-server minus HTTP, assembled the
// way newServer, setupCluster/installCluster and openDurable assemble it. It
// is the oracle of the check phase and the subject of the traced run; the
// check phase comparing it with the real server is what pins this wiring to
// the server's.
type stack struct {
	poly    *core.Polystore
	index   *aindex.Index
	aug     *augment.Augmenter
	rc      *rcache.Cache
	tracker *aindex.PathTracker
	coord   *cluster.Coordinator // cluster_keyed only

	// The adaptive optimizer loop of handleSearch (chooseConfig/observe):
	// it swaps the augmenter's configuration as traffic flows, so a replay
	// without it would time a configuration the server leaves after its
	// first retrain.
	opt      *optimizer.Adaptive
	lastSeen map[string][2]int

	closers []func()
}

// The server's fixed wiring constants (cmd/quepa-server/main.go).
const (
	rcacheCap       = 4096
	objectCacheCap  = 4096
	retrainEvery    = 256
	optimizerLogCap = 4096
)

var serverConfig = augment.Config{Strategy: augment.OuterBatch, BatchSize: 64, ThreadsSize: 8, CacheSize: objectCacheCap}

// baseData is the generated dataset shared by every stack of a run. Stacks
// never mutate it: each registers the base stores in a polystore of its own
// and works on its own clone of the index.
type baseData struct {
	built *workload.Built

	// The three-peer partition of the index, built on first use (~1.7 s a
	// shard). cluster_keyed never mutates the index, so its stacks share it.
	ring   *cluster.Ring
	shards []*aindex.Index
}

func buildBase() (*baseData, error) {
	built, err := workload.Build(workload.DefaultSpec().Scale(serverScale), workload.Colocated())
	if err != nil {
		return nil, err
	}
	return &baseData{built: built}, nil
}

// freshPoly registers the base stores in a new polystore.
func (b *baseData) freshPoly() (*core.Polystore, error) {
	poly := core.NewPolystore()
	for _, name := range b.built.Poly.Databases() {
		st, err := b.built.Poly.Database(name)
		if err != nil {
			return nil, err
		}
		if err := poly.Register(st); err != nil {
			return nil, err
		}
	}
	return poly, nil
}

const clusterPeers = 3

// partition carves the index along the ring the way every peer of the
// deployment does for its own shard.
func (b *baseData) partition() (*cluster.Ring, []*aindex.Index, error) {
	if b.shards != nil {
		return b.ring, b.shards, nil
	}
	ring, err := cluster.NewRing(clusterPeers, cluster.DefaultVnodes, 0)
	if err != nil {
		return nil, nil, err
	}
	shards := make([]*aindex.Index, clusterPeers)
	errs := make([]error, clusterPeers)
	var wg sync.WaitGroup
	for shard := range shards {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			shards[shard], errs[shard] = cluster.BuildShard(b.built.Index, ring, shard)
		}(shard)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	b.ring, b.shards = ring, shards
	return ring, shards, nil
}

// layout says which of the server's deployment shapes a stack mirrors.
type layout struct {
	cluster bool // -cluster p0,p1,p2 -shard-id 0, with the two other peers in-process
	durable bool // -data-dir <tmp> -fsync interval
}

// oracleLayout is the plain single-node stack. It is the oracle for every
// workload: sharding and durability must not change an answer (Definition 2
// has one reading), and the check phase holds the deployed servers to that.
var oracleLayout = layout{}

// layoutOf is the shape a workload's servers are deployed in, which the
// traced run times.
func layoutOf(workloadName string) layout {
	return layout{cluster: workloadName == clusterKeyed, durable: workloadName == exploreMutate}
}

// newStack assembles a stack. rec, when non-nil, is interposed at the one
// interface the program already has — core.Store — as the outermost wrapper,
// so a store span covers everything the augmenter waits for (breaker, ring
// routing, remote fetch).
func newStack(base *baseData, l layout, rec *recorder) (*stack, error) {
	poly, err := base.freshPoly()
	if err != nil {
		return nil, err
	}
	s := &stack{index: base.built.Index.Clone(), lastSeen: map[string][2]int{}}
	s.index.RefreshSnapshot()
	fail := func(err error) (*stack, error) {
		s.close()
		return nil, err
	}
	bcfg := resilience.BreakerConfig{FailureThreshold: resilience.DefaultFailureThreshold, Cooldown: resilience.DefaultCooldown}

	var node *cluster.Node
	if l.cluster {
		// Only shard 0 gets a coordinator because only shard 0 takes load.
		ring, shards, err := base.partition()
		if err != nil {
			return fail(err)
		}
		peers := make([]string, clusterPeers)
		for shard, idx := range shards {
			n := cluster.NewNode(shard, idx, poly)
			srv, err := wire.Serve(n, "127.0.0.1:0")
			if err != nil {
				return fail(err)
			}
			s.closers = append(s.closers, func() { srv.Close() })
			peers[shard] = srv.Addr()
			if shard == 0 {
				node = n
			}
		}
		s.coord, err = cluster.NewCoordinator(cluster.Config{
			Ring: ring, Peers: peers, Self: 0, Node: node, Breaker: bcfg,
			Client: wire.ClientConfig{Retry: resilience.DefaultRetryPolicy(), PoolSize: wire.DefaultPoolSize},
		})
		if err != nil {
			return fail(err)
		}
		s.closers = append(s.closers, s.coord.Close)
		if poly, err = cluster.RoutePolystore(poly, s.coord); err != nil {
			return fail(err)
		}
	}

	if l.durable {
		dir, err := tempDir("refdata-")
		if err != nil {
			return fail(err)
		}
		m, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncInterval, FsyncEvery: 100 * time.Millisecond, SegmentBytes: 8 << 20})
		if err != nil {
			return fail(err)
		}
		s.closers = append(s.closers, m.Abort) // no final checkpoint: the directory is thrown away
		if err := m.Seed(s.index); err != nil {
			return fail(err)
		}
	}

	if err := resilience.GuardPolystore(poly, resilience.NewSet(bcfg)); err != nil {
		return fail(err)
	}
	if rec != nil {
		for _, name := range poly.Databases() {
			st, err := poly.Database(name)
			if err != nil {
				return fail(err)
			}
			poly.Deregister(name)
			if err := poly.Register(&timedStore{inner: st, rec: rec}); err != nil {
				return fail(err)
			}
		}
	}
	s.poly = poly
	s.aug = augment.New(poly, s.index, serverConfig)
	s.rc = rcache.New(rcacheCap)
	s.aug.SetResultCache(s.rc)
	s.index.SetInvalidationHook(s.rc.Invalidate)
	s.tracker = aindex.NewPathTracker(s.index, aindex.DefaultPromotionPolicy)
	s.opt = optimizer.NewAdaptive()
	s.opt.RetrainEvery = retrainEvery
	s.opt.MaxLogs = optimizerLogCap
	if s.coord != nil {
		s.aug.SetReacher(s.coord)
		s.coord.SetResultCache(s.rc)
		node.Index().SetInvalidationHook(s.rc.Invalidate)
	}
	return s, nil
}

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// search is handleSearch without the HTTP and JSON parts: optimizer
// decision, augmented search, optimizer feedback. Ranking is the caller's.
func (s *stack) search(ctx context.Context, o op) (*augment.Answer, error) {
	s.choose(o)
	start := time.Now()
	answer, err := s.aug.Search(ctx, o.DB, o.Query, o.Level)
	if err != nil {
		return nil, err
	}
	s.observe(o, answer, time.Since(start))
	return answer, nil
}

func signature(o op) string { return o.DB + "\x00" + o.Query + "\x00" + strconv.Itoa(o.Level) }

// choose is the server's chooseConfig: the previous run of the same query
// provides the features, and a trained optimizer reconfigures the augmenter.
func (s *stack) choose(o op) {
	last := s.lastSeen[signature(o)]
	f := optimizer.QueryFeatures{ResultSize: last[0], AugmentedSize: last[1], Level: o.Level, NumStores: s.poly.Size()}
	if cfg, dec := s.opt.ChooseExplained(f, s.aug.Config().CacheSize); dec.Trained {
		s.aug.SetConfig(cfg)
	}
}

// observe is the server's observe: remember the sizes, log the run (which
// retrains inline every retrainEvery-th search).
func (s *stack) observe(o op, answer *augment.Answer, elapsed time.Duration) {
	f := optimizer.QueryFeatures{ResultSize: len(answer.Original), AugmentedSize: len(answer.Augmented), Level: o.Level, NumStores: s.poly.Size()}
	sig := signature(o)
	if _, known := s.lastSeen[sig]; !known && len(s.lastSeen) >= optimizerLogCap {
		// The server evicts in first-seen order; which signature goes does
		// not matter to a replay far shorter than the bound.
		for k := range s.lastSeen {
			delete(s.lastSeen, k)
			break
		}
	}
	s.lastSeen[sig] = [2]int{f.ResultSize, f.AugmentedSize}
	s.opt.Log(optimizer.RunLog{Features: f, Config: s.aug.Config(), Duration: elapsed})
}

// timedStore is the span recorder's decorator on core.Store.
type timedStore struct {
	inner core.Store
	rec   *recorder
}

func (t *timedStore) Name() string          { return t.inner.Name() }
func (t *timedStore) Kind() core.StoreKind  { return t.inner.Kind() }
func (t *timedStore) Collections() []string { return t.inner.Collections() }

// KeyField forwards key-field resolution, so decorating does not change
// what the validator rewrites.
func (t *timedStore) KeyField(ctx context.Context, collection string) (string, error) {
	if kr, ok := t.inner.(interface {
		KeyField(context.Context, string) (string, error)
	}); ok {
		return kr.KeyField(ctx, collection)
	}
	return "", core.ErrUnsupportedQuery
}

func (t *timedStore) Get(ctx context.Context, collection, key string) (core.Object, error) {
	id := t.rec.begin(spanGet, t.inner.Name())
	o, err := t.inner.Get(ctx, collection, key)
	n := 1
	if err != nil {
		n = 0
	}
	t.rec.end(id, n)
	return o, err
}

func (t *timedStore) GetBatch(ctx context.Context, collection string, keys []string) ([]core.Object, error) {
	id := t.rec.begin(spanGetBatch, t.inner.Name())
	out, err := t.inner.GetBatch(ctx, collection, keys)
	t.rec.end(id, len(out))
	return out, err
}

func (t *timedStore) Query(ctx context.Context, query string) ([]core.Object, error) {
	id := t.rec.begin(spanQuery, t.inner.Name())
	out, err := t.inner.Query(ctx, query)
	t.rec.end(id, len(out))
	return out, err
}

// Span names. The store spans are children of whichever top-level call is
// open when they start.
const (
	spanValidate = "validator.validate"
	spanSearch   = "augment.search"
	spanRank     = "augment.rank"
	spanReach    = "aindex.reach"
	spanExplore  = "explore.start"
	spanStep     = "explore.step"
	spanFinish   = "explore.finish"
	spanQuery    = "stores.query"
	spanGetBatch = "stores.getbatch"
	spanGet      = "stores.get"
)

// span is one timed call: name, start, end, the span that caused it, and the
// request all spans of one request share.
type span struct {
	ID     int    `json:"id"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"` // -1: called by the replay loop itself
	Name   string `json:"name"`
	Store  string `json:"store,omitempty"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
	Count  int    `json:"count"` // objects (store spans), keys (reach), 0 otherwise
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the replay ends. The replay is one
// goroutine, but the augmenter fetches from worker goroutines, so begin/end
// lock.
type recorder struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	req    int // request being replayed
	parent int // open top-level span, -1 when none
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), parent: -1}
}

// begin opens a span under the currently open top-level span.
func (r *recorder) begin(name, store string) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Req: r.req, Parent: r.parent, Name: name, Store: store, Start: now})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id, count int) {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.spans[id].Count = count
	r.mu.Unlock()
}

// top times fn as a top-level span of request req; store spans started
// while it runs become its children.
func (r *recorder) top(req int, name string, fn func() int) {
	r.mu.Lock()
	r.req = req
	r.mu.Unlock()
	id := r.begin(name, "")
	r.mu.Lock()
	r.parent = id
	r.mu.Unlock()
	count := fn()
	r.mu.Lock()
	r.parent = -1
	r.mu.Unlock()
	r.end(id, count)
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap each other (parallel fetches) and are
// clipped to the parent.
func selfTime(parent span, children []span) int64 {
	return parent.dur() - covered(parent, children)
}

// covered is the length of the union of the children's intervals, clipped to
// the parent's.
func covered(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	// Insertion sort: a request has a handful of store spans.
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j].a < ivs[j-1].a; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	var total, end int64
	end = -1 << 62
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}
