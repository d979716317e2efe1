package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"quepa/internal/aindex"
	"quepa/internal/augment"
	"quepa/internal/cache"
	"quepa/internal/core"
	"quepa/internal/optimizer"
	"quepa/internal/rcache"
	"quepa/internal/resilience"
	"quepa/internal/validator"
	"quepa/internal/wal"
	"quepa/internal/wire"
)

// traceRequests is how many requests of the timed stream the traced run
// replays (fewer when its time limit ends first; the count is reported).
const traceRequests = 2000

// accountingTolerance is the span accounting rule: the medians of
// validator + stores.query + augment.self + stores.getbatch must sum to
// within this share of the median augment.search_us.
const accountingTolerance = 0.10

// layerReport is the outcome of the traced run of one workload.
type layerReport struct {
	requests      int // HTTP-equivalent requests replayed
	layers        metrics
	accountingGap float64
}

// replaySample is what the replay keeps of one search for the
// micro-measurements that run "on the workload's keys".
type replaySample struct {
	origins []core.GlobalKey
	outcome []augment.AugmentedObject
	log     optimizer.RunLog
}

// replay runs ops on a stack from one goroutine, no HTTP. With rec nil it
// only times Augmenter.Search (the decorators-off pass); with rec it records
// spans around validator.Validate, Augmenter.Search, Answer.Rank,
// Index.ReachWithStats and the exploration calls, while the stores' decorator
// records the children. It stops after maxRequests requests or limit.
func replay(s *stack, rec *recorder, ops []op, seed int64, maxRequests int, limit time.Duration) (searchUS []float64, samples []replaySample, requests int, err error) {
	ctx := context.Background()
	start := time.Now()
	for i, o := range head(ops, maxRequests) {
		if time.Since(start) >= limit {
			break
		}
		requests += o.requests()
		if o.Kind == opSession {
			var d sessionDriver = &stackSession{s: s}
			if rec != nil {
				d = &tracedSession{inner: d, rec: rec, req: i}
			}
			if _, err := walkSession(seed, o, d); err != nil {
				return nil, nil, 0, err
			}
			continue
		}
		if rec == nil {
			s.choose(o)
			t := time.Now()
			answer, err := s.aug.Search(ctx, o.DB, o.Query, o.Level)
			elapsed := time.Since(t)
			if err != nil {
				return nil, nil, 0, err
			}
			s.observe(o, answer, elapsed)
			answer.Rank(0, 0)
			searchUS = append(searchUS, float64(elapsed.Nanoseconds())/1e3)
			continue
		}
		store, err := s.poly.Database(o.DB)
		if err != nil {
			return nil, nil, 0, err
		}
		rec.top(i, spanValidate, func() int {
			_, err = validator.Validate(ctx, store, o.Query)
			return 0
		})
		if err != nil {
			return nil, nil, 0, err
		}
		s.choose(o)
		var answer *augment.Answer
		t := time.Now()
		rec.top(i, spanSearch, func() int {
			answer, err = s.aug.Search(ctx, o.DB, o.Query, o.Level)
			return 0
		})
		elapsed := time.Since(t)
		if err != nil {
			return nil, nil, 0, err
		}
		s.observe(o, answer, elapsed)
		rec.top(i, spanRank, func() int { return len(answer.Rank(0, 0)) })
		rec.top(i, spanReach, func() int {
			keys := 0
			for _, orig := range answer.Original {
				hits, _ := s.index.ReachWithStats(orig.GK, o.Level)
				keys += len(hits)
			}
			return keys
		})
		sample := replaySample{outcome: answer.Augmented, log: optimizer.RunLog{
			Features: optimizer.QueryFeatures{ResultSize: len(answer.Original), AugmentedSize: len(answer.Augmented), Level: o.Level, NumStores: s.poly.Size()},
			Config:   s.aug.Config(), Duration: elapsed,
		}}
		for _, orig := range answer.Original {
			sample.origins = append(sample.origins, orig.GK)
		}
		samples = append(samples, sample)
	}
	return searchUS, samples, requests, nil
}

// tracedSession records each exploration call as a top-level span.
type tracedSession struct {
	inner sessionDriver
	rec   *recorder
	req   int
}

func (t *tracedSession) start(o op) (keys []string, err error) {
	t.rec.top(t.req, spanExplore, func() int { keys, err = t.inner.start(o); return len(keys) })
	return keys, err
}

func (t *tracedSession) step(key string) (links []link, err error) {
	t.rec.top(t.req, spanStep, func() int { links, err = t.inner.step(key); return len(links) })
	return links, err
}

func (t *tracedSession) finish() (promoted bool, path []string, err error) {
	t.rec.top(t.req, spanFinish, func() int { promoted, path, err = t.inner.finish(); return len(path) })
	return promoted, path, err
}

// searchLayers is the per-request attribution of one traced search.
type searchLayers struct {
	validate, search, query, getbatch, self, rank, reach float64 // µs
	getbatchCalls, objectsFetched, reachKeys             float64
}

// attribute turns the spans of a replay into one searchLayers per search
// request. A search's children are the store spans it caused; its self time
// is its span minus what they cover, minus the validation it repeats inside
// (timed once outside, as its own top-level span).
func attribute(spans []span) []searchLayers {
	children := map[int][]span{}
	byReq := map[int]map[string]span{}
	var order []int
	for _, sp := range spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
			continue
		}
		if byReq[sp.Req] == nil {
			byReq[sp.Req] = map[string]span{}
			order = append(order, sp.Req)
		}
		byReq[sp.Req][sp.Name] = sp
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	var out []searchLayers
	for _, req := range order {
		tops := byReq[req]
		search, ok := tops[spanSearch]
		if !ok {
			continue
		}
		l := searchLayers{
			validate:  us(tops[spanValidate].dur()),
			search:    us(search.dur()),
			rank:      us(tops[spanRank].dur()),
			reach:     us(tops[spanReach].dur()),
			reachKeys: float64(tops[spanReach].Count),
		}
		var fetches []span
		for _, c := range children[search.ID] {
			if c.Name == spanQuery {
				l.query += us(c.dur())
				continue
			}
			fetches = append(fetches, c)
			l.getbatchCalls++
			l.objectsFetched += float64(c.Count)
		}
		l.getbatch = us(covered(search, fetches))
		l.self = math.Max(0, us(selfTime(search, children[search.ID]))-l.validate)
		out = append(out, l)
	}
	return out
}

// tracedRun is `benchmark layers` for one workload: replay the head of the
// timed stream with the decorators off, replay it again with them on, derive
// the per-layer medians and write trace.json.
func tracedRun(base *baseData, workloadName string, seed int64, ops []op, limit time.Duration, dir string) (*layerReport, error) {
	// Decorators off, on, off: the first pass also pays for a cold machine
	// (page faults, CPU caches), so the overhead is judged against both.
	plainPass := func(maxRequests int) ([]float64, int, error) {
		plain, err := newStack(base, layoutOf(workloadName), nil)
		if err != nil {
			return nil, 0, err
		}
		defer plain.close()
		us, _, requests, err := replay(plain, nil, ops, seed, maxRequests, limit)
		if err != nil {
			return nil, 0, fmt.Errorf("untraced replay: %w", err)
		}
		return us, requests, nil
	}
	plainUS, requests, err := plainPass(traceRequests)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	traced, err := newStack(base, layoutOf(workloadName), rec)
	if err != nil {
		return nil, err
	}
	defer traced.close()
	// Every pass replays the request count the first one managed inside the
	// limit, so the medians compare; the limit is only a guard from here on.
	limit = 4*limit + time.Second
	_, samples, _, err := replay(traced, rec, ops, seed, requests, limit)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	plainAgain, _, err := plainPass(requests)
	if err != nil {
		return nil, err
	}
	plainUS = append(plainUS, plainAgain...)
	per := attribute(rec.spans)
	if len(per) == 0 || len(plainUS) == 0 {
		return nil, fmt.Errorf("traced replay of %s recorded no search", workloadName)
	}

	col := func(f func(searchLayers) float64) []float64 {
		out := make([]float64, len(per))
		for i, l := range per {
			out[i] = f(l)
		}
		return out
	}
	m := metrics{}
	validate := median(col(func(l searchLayers) float64 { return l.validate }))
	search := median(col(func(l searchLayers) float64 { return l.search }))
	query := median(col(func(l searchLayers) float64 { return l.query }))
	getbatch := median(col(func(l searchLayers) float64 { return l.getbatch }))
	self := median(col(func(l searchLayers) float64 { return l.self }))
	m.set("validator.validate_us", validate, "us")
	m.set("augment.search_us", search, "us")
	m.set("augment.self_us", self, "us")
	m.set("augment.rank_us", median(col(func(l searchLayers) float64 { return l.rank })), "us")
	m.set("stores.query_us", query, "us")
	m.set("stores.getbatch_us", getbatch, "us")
	m.set("stores.getbatch_calls", mean(col(func(l searchLayers) float64 { return l.getbatchCalls })), "1/op")
	m.set("stores.objects_fetched", mean(col(func(l searchLayers) float64 { return l.objectsFetched })), "1/op")
	m.set("aindex.reach_us", median(col(func(l searchLayers) float64 { return l.reach })), "us")
	m.set("aindex.reach_keys", mean(col(func(l searchLayers) float64 { return l.reachKeys })), "1/op")
	plainSearch := median(plainUS)
	m.set("bench.trace_overhead_share", (search-plainSearch)/plainSearch, "ratio")

	microCaches(m, samples)
	if err := microOptimizer(m, samples); err != nil {
		return nil, err
	}
	if err := microWAL(m, workloadName == exploreMutate); err != nil {
		return nil, err
	}
	if err := microCluster(m, base, traced, samples); err != nil {
		return nil, err
	}

	report := &layerReport{requests: requests, layers: m,
		accountingGap: math.Abs(validate+query+self+getbatch-search) / search}
	return report, writeTrace(filepath.Join(dir, "trace."+workloadName+".json"), workloadName, seed, report, rec.spans)
}

func writeTrace(path, workloadName string, seed int64, r *layerReport, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{
		"workload": workloadName, "seed": seed, "requests": r.requests,
		"accounting_gap_share": r.accountingGap, "per_layer": r.layers, "spans": spans,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// microOps is the least number of operations a nanosecond-scale
// micro-measurement times in one go, so the clock's resolution is noise.
const microOps = 20000

// microCaches times the two LRUs on the keys and values the replay saw:
// rcache outcome entries keyed by the searches' origins, object-cache
// entries for the augmented objects.
func microCaches(m metrics, samples []replaySample) {
	var keys []rcache.Key
	var outcomes [][]augment.AugmentedObject
	var objects []core.Object
	seen := map[core.GlobalKey]bool{}
	for _, s := range samples {
		for _, gk := range s.origins {
			if !seen[gk] {
				seen[gk] = true
				keys = append(keys, rcache.Key{GK: gk, Level: searchLevel, Kind: rcache.KindOutcome})
				outcomes = append(outcomes, s.outcome)
			}
		}
		for _, ao := range s.outcome {
			if !seen[ao.Object.GK] {
				seen[ao.Object.GK] = true
				objects = append(objects, ao.Object)
			}
		}
	}
	perOp := func(n int, fn func(i int)) float64 {
		if n == 0 {
			return 0
		}
		rounds := (microOps + n - 1) / n
		start := time.Now()
		for r := 0; r < rounds; r++ {
			for i := 0; i < n; i++ {
				fn(i)
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(rounds*n)
	}
	rc := rcache.New(rcacheCap)
	m.set("rcache.put_ns", perOp(len(keys), func(i int) { rc.PutOutcome(keys[i], 1, outcomes[i]) }), "ns")
	m.set("rcache.get_ns", perOp(len(keys), func(i int) { rc.GetOutcome(keys[i], 1) }), "ns")
	oc := cache.NewLRU(objectCacheCap)
	m.set("cache.put_ns", perOp(len(objects), func(i int) { oc.Put(objects[i]) }), "ns")
	m.set("cache.get_ns", perOp(len(objects), func(i int) { oc.Get(objects[i].GK) }), "ns")
}

// microOptimizer times Adaptive.Train on a full run log (optimizerLogCap
// entries, the replay's logs repeated), which the server runs inline on
// every retrainEvery-th search.
func microOptimizer(m metrics, samples []replaySample) error {
	opt := optimizer.NewAdaptive()
	opt.MaxLogs = optimizerLogCap
	for i := 0; i < optimizerLogCap; i++ {
		opt.Log(samples[i%len(samples)].log)
	}
	var ms []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		if err := opt.Train(); err != nil {
			return fmt.Errorf("optimizer.retrain_ms: %w", err)
		}
		ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
	}
	m.set("optimizer.retrain_ms", median(ms), "ms")
	return nil
}

// microWAL times Manager.Log of one promotion-sized batch under the
// interval policy the server runs with and under always. The sandbox's
// fsync is cheap; the numbers are the sandbox's, not a disk's.
func microWAL(m metrics, enabled bool) error {
	m.set("wal.append_us", 0, "us")
	m.set("wal.append_always_us", 0, "us")
	if !enabled {
		return nil
	}
	for _, c := range []struct {
		metric, policy string
		appends        int
	}{{"wal.append_us", wal.FsyncInterval, 2000}, {"wal.append_always_us", wal.FsyncAlways, 200}} {
		dir, err := tempDir("wal-")
		if err != nil {
			return err
		}
		mgr, err := wal.Open(dir, wal.Options{Fsync: c.policy})
		if err != nil {
			return err
		}
		ix := aindex.New()
		if err := mgr.Seed(ix); err != nil {
			return err
		}
		epoch := ix.Epoch()
		us := make([]float64, c.appends)
		for i := range us {
			epoch++
			batch := []aindex.JournalOp{{Kind: aindex.OpInsert, Rel: core.NewMatching(
				core.NewGlobalKey("transactions", "sales", fmt.Sprintf("s%d", i)),
				core.NewGlobalKey("similar-items", "items", fmt.Sprintf("n%d", i)), 0.75)}}
			start := time.Now()
			mgr.Log(batch, epoch)
			us[i] = float64(time.Since(start).Nanoseconds()) / 1e3
		}
		werr := mgr.Err()
		mgr.Abort()
		if werr != nil {
			return fmt.Errorf("%s: %w", c.metric, werr)
		}
		m.set(c.metric, median(us), "us")
	}
	return nil
}

// microCluster times the two cross-node primitives of cluster_keyed: one
// getbatch round trip through a loopback wire server with the negotiated
// codec, and one uncached Coordinator.ReachScatter over the three in-process
// nodes of the traced stack.
func microCluster(m metrics, base *baseData, traced *stack, samples []replaySample) error {
	m.set("wire.getbatch_rtt_us", 0, "us")
	m.set("cluster.scatter_us", 0, "us")
	if traced.coord == nil {
		return nil
	}
	store, err := base.built.Poly.Database("transactions")
	if err != nil {
		return err
	}
	srv, err := wire.Serve(store, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	cli, err := wire.DialConfig(srv.Addr(), wire.ClientConfig{Retry: resilience.DefaultRetryPolicy()})
	if err != nil {
		return err
	}
	defer cli.Close()
	ctx := context.Background()
	var rtt []float64
	for i := 0; i < 500; i++ {
		keys := make([]string, keyedWidth)
		for k := range keys {
			keys[k] = fmt.Sprintf("a%d", i*keyedWidth+k)
		}
		start := time.Now()
		objs, err := cli.GetBatch(ctx, "inventory", keys)
		if err != nil || len(objs) != keyedWidth {
			return fmt.Errorf("wire.getbatch_rtt_us: %d objects, %v", len(objs), err)
		}
		rtt = append(rtt, float64(time.Since(start).Nanoseconds())/1e3)
	}
	m.set("wire.getbatch_rtt_us", median(rtt), "us")

	// Memoization off: a repeated origin would otherwise cost no scatter.
	traced.coord.SetResultCache(nil)
	var scatter []float64
	for _, s := range samples {
		if len(scatter) >= 500 {
			break
		}
		for _, gk := range s.origins {
			start := time.Now()
			_, _, degs := traced.coord.ReachScatter(ctx, gk, searchLevel)
			if len(degs) != 0 {
				return fmt.Errorf("cluster.scatter_us: degraded scatter: %v", degs)
			}
			scatter = append(scatter, float64(time.Since(start).Nanoseconds())/1e3)
		}
	}
	m.set("cluster.scatter_us", median(scatter), "us")
	return nil
}
