package augment

import (
	"context"
	"sync"
	"sync/atomic"

	"quepa/internal/core"
)

// This file contains the six execution strategies of Section IV. They all
// consume a plan (the deduplicated fetch work) and fill a sink; they differ
// only in scheduling. Each runner receives the Config the augmentation runs
// with rather than reading a.cfg, so a concurrent SetConfig cannot change
// parameters mid-run:
//
//	SEQUENTIAL   one direct-access query per key, in order (Fig. 6(a))
//	BATCH        keys grouped per store, flushed at BATCH_SIZE (Fig. 6(b))
//	INNER        per origin, its keys fetched by THREADS_SIZE workers (Fig. 6(c))
//	OUTER        a worker per origin, keys fetched sequentially (Fig. 7(a))
//	OUTER-BATCH  main fills groups, workers flush them (Fig. 7(b))
//	OUTER-INNER  THREADS_SIZE/2 outer workers × THREADS_SIZE/2 inner workers (Fig. 7(c))

// Store failures degrade rather than abort: every runner funnels fetch
// errors through sink.absorb, which drops the failing store's contribution
// and lets the healthy stores complete. Only a dead caller context still
// propagates (absorb returns it), which is what errOnce now carries.

func (a *Augmenter) runSequential(ctx context.Context, _ Config, p *plan, s *sink) error {
	return a.fetchMissesInto(ctx, p, s, a.sweepCache(ctx, p.order, s))
}

// fetchMissesInto resolves cache-missed keys in order — one store round trip
// each — degrading failing stores instead of aborting. It is the
// shared tail of every single-key strategy: the sweep already served the
// hits, so only the misses reach here. A non-nil return means the caller's
// context died.
func (a *Augmenter) fetchMissesInto(ctx context.Context, p *plan, s *sink, misses []core.GlobalKey) error {
	for _, gk := range misses {
		if s.isDegraded(gk.Database) {
			continue
		}
		obj, ok, err := a.fetchMiss(ctx, gk, s)
		if err != nil {
			if err := s.absorb(ctx, gk.Database, p.dist(gk), err); err != nil {
				return err
			}
			continue
		}
		if ok {
			s.add(obj)
		}
	}
	return nil
}

// group identifies a batch bucket: one target database and collection.
type group struct {
	database   string
	collection string
}

func (a *Augmenter) runBatch(ctx context.Context, cfg Config, p *plan, s *sink) error {
	var err error
	p.eachGroup(cfg.BatchSize, func(g group, keys []string) bool {
		if s.isDegraded(g.database) {
			return true
		}
		if ferr := a.fetchGroup(ctx, g.database, g.collection, keys, s); ferr != nil {
			err = s.absorb(ctx, g.database, p.groupDist(g, keys), ferr)
		}
		return err == nil
	})
	return err
}

// runInner iterates over the origins in the main goroutine; the keys of each
// origin are fetched by a pool of THREADS_SIZE workers before moving on.
func (a *Augmenter) runInner(ctx context.Context, cfg Config, p *plan, s *sink) error {
	for _, keys := range p.byOrigin {
		if err := a.parallelFetch(ctx, p, keys, cfg.ThreadsSize, s); err != nil {
			return err
		}
	}
	return nil
}

// runOuter launches a goroutine per origin (bounded by THREADS_SIZE); each
// sweeps its keys through the cache, then fetches the misses sequentially.
func (a *Augmenter) runOuter(ctx context.Context, cfg Config, p *plan, s *sink) error {
	return a.forEachOrigin(ctx, p, cfg.ThreadsSize, func(ctx context.Context, keys []core.GlobalKey) error {
		return a.fetchMissesInto(ctx, p, s, a.sweepCache(ctx, keys, s))
	})
}

// runOuterBatch has the main goroutine fill per-store groups while
// THREADS_SIZE workers flush full groups concurrently.
func (a *Augmenter) runOuterBatch(ctx context.Context, cfg Config, p *plan, s *sink) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type job struct {
		g    group
		keys []string
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	errOnce := newErrOnce(cancel)
	for w := 0; w < cfg.ThreadsSize; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if s.isDegraded(j.g.database) {
					continue
				}
				if err := a.fetchGroup(ctx, j.g.database, j.g.collection, j.keys, s); err != nil {
					if err := s.absorb(ctx, j.g.database, p.groupDist(j.g, j.keys), err); err != nil {
						errOnce.set(err)
					}
					// Keep draining so the producer never blocks.
				}
			}
		}()
	}

	p.eachGroup(cfg.BatchSize, func(g group, keys []string) bool {
		select {
		case jobs <- job{g: g, keys: keys}:
			return true
		case <-ctx.Done():
			return false
		}
	})
	close(jobs)
	wg.Wait()
	if err := errOnce.get(); err != nil {
		return err
	}
	return ctx.Err()
}

// runOuterInner splits THREADS_SIZE between the two levels of parallelism:
// half the threads process origins concurrently, and each of those uses the
// other half as inner fetch parallelism for its keys.
func (a *Augmenter) runOuterInner(ctx context.Context, cfg Config, p *plan, s *sink) error {
	outer := cfg.ThreadsSize / 2
	if outer < 1 {
		outer = 1
	}
	inner := cfg.ThreadsSize - outer
	if inner < 1 {
		inner = 1
	}
	return a.forEachOrigin(ctx, p, outer, func(ctx context.Context, keys []core.GlobalKey) error {
		return a.parallelFetch(ctx, p, keys, inner, s)
	})
}

// forEachOrigin runs fn over every origin's key list with at most `workers`
// concurrent invocations, stopping at the first error.
func (a *Augmenter) forEachOrigin(ctx context.Context, p *plan, workers int, fn func(context.Context, []core.GlobalKey) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	errOnce := newErrOnce(cancel)
	for _, keys := range p.byOrigin {
		if len(keys) == 0 {
			continue
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			wg.Wait()
			if err := errOnce.get(); err != nil {
				return err
			}
			return ctx.Err()
		}
		wg.Add(1)
		go func(keys []core.GlobalKey) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := fn(ctx, keys); err != nil {
				errOnce.set(err)
			}
		}(keys)
	}
	wg.Wait()
	if err := errOnce.get(); err != nil {
		return err
	}
	return ctx.Err()
}

// parallelFetch retrieves a key list with a pool of `workers` goroutines.
// The cache is swept up front in the calling goroutine: on a warm cache the
// whole list resolves without spawning anything, and only the misses are
// handed to workers. Workers claim misses by bumping a shared atomic index —
// no feed channel, no per-key channel handoff.
func (a *Augmenter) parallelFetch(ctx context.Context, p *plan, keys []core.GlobalKey, workers int, s *sink) error {
	if len(keys) == 0 {
		return nil
	}
	misses := a.sweepCache(ctx, keys, s)
	if len(misses) == 0 {
		return ctx.Err()
	}
	if workers > len(misses) {
		workers = len(misses)
	}
	if workers <= 1 {
		if err := a.fetchMissesInto(ctx, p, s, misses); err != nil {
			return err
		}
		return ctx.Err()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var next atomic.Int64
	var wg sync.WaitGroup
	errOnce := newErrOnce(cancel)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(misses) {
					return
				}
				gk := misses[i]
				if s.isDegraded(gk.Database) {
					continue
				}
				obj, ok, err := a.fetchMiss(ctx, gk, s)
				if err != nil {
					if err := s.absorb(ctx, gk.Database, p.dist(gk), err); err != nil {
						errOnce.set(err)
						return
					}
					continue
				}
				if ok {
					s.add(obj)
				}
			}
		}()
	}
	wg.Wait()
	if err := errOnce.get(); err != nil {
		return err
	}
	return ctx.Err()
}

// errOnce records the first error and cancels the shared context.
type errOnce struct {
	once   sync.Once
	cancel context.CancelFunc
	mu     sync.Mutex
	err    error
}

func newErrOnce(cancel context.CancelFunc) *errOnce {
	return &errOnce{cancel: cancel}
}

func (e *errOnce) set(err error) {
	if err == nil {
		return
	}
	e.once.Do(func() {
		e.mu.Lock()
		e.err = err
		e.mu.Unlock()
		e.cancel()
	})
}

func (e *errOnce) get() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}
