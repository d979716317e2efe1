package augment

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"quepa/internal/core"
)

// This file contains the scheduler of the six execution strategies of
// Section IV. They all consume a plan (the deduplicated fetch work) and fill
// a sink; they differ only in scheduling, along two axes: keys are fetched
// one by one or in per-store groups of BATCH_SIZE (Batched), and
// THREADS_SIZE workers run over the origins (outer), within one origin's
// keys (inner), or both (shape). The scheduler receives the Config the
// augmentation runs with rather than reading a.cfg, so a concurrent
// SetConfig cannot change parameters mid-run:
//
//	strategy     fetch     outer         inner         paper
//	SEQUENTIAL   per key   1             1             Fig. 6(a)
//	BATCH        grouped   1             —             Fig. 6(b)
//	INNER        per key   1             T             Fig. 6(c)
//	OUTER        per key   T             1             Fig. 7(a)
//	OUTER-BATCH  grouped   T             —             Fig. 7(b)
//	OUTER-INNER  per key   T/2           T − T/2       Fig. 7(c)
//
// T is THREADS_SIZE. One worker runs in the calling goroutine.

// Store failures degrade rather than abort: every fetch error goes through
// sink.absorb, which drops the failing store's contribution and lets the
// healthy stores complete. Only a dead caller context still propagates
// (absorb returns it), which is what errOnce carries.

// shape returns the strategy's worker counts over the origins (outer) and
// within one origin's keys (inner) for THREADS_SIZE threads, or 0, 0 for an
// unknown strategy. A batched strategy's outer count is its group flushers.
func (s Strategy) shape(threads int) (outer, inner int) {
	switch s {
	case Sequential, Batch:
		return 1, 1
	case Inner:
		return 1, threads
	case Outer, OuterBatch:
		return threads, 1
	case OuterInner:
		outer = max(threads/2, 1)
		return outer, max(threads-outer, 1)
	}
	return 0, 0
}

// schedule runs the plan's fetches the way cfg's strategy shapes them.
func (a *Augmenter) schedule(ctx context.Context, cfg Config, p *plan, s *sink) error {
	outer, inner := cfg.Strategy.shape(cfg.ThreadsSize)
	switch {
	case outer == 0:
		return fmt.Errorf("augment: unknown strategy %v", cfg.Strategy)
	case cfg.Strategy.Batched():
		return a.runGroups(ctx, p, s, cfg.BatchSize, outer)
	}
	return claim(ctx, len(p.byOrigin), outer, func(ctx context.Context, i int) error {
		return a.fetchKeys(ctx, p, s, p.byOrigin[i], inner)
	})
}

// group identifies a batch bucket: one target database and collection.
type group struct {
	database   string
	collection string
}

// runGroups cuts the plan into per-store groups of at most batchSize keys
// and fetches each group with one batched query. One worker flushes the
// groups in the calling goroutine as they fill (BATCH); more workers drain
// them from the calling goroutine, which fills them (OUTER-BATCH).
func (a *Augmenter) runGroups(ctx context.Context, p *plan, s *sink, batchSize, workers int) error {
	flush := func(ctx context.Context, g group, keys []string) error {
		if s.isDegraded(g.database) {
			return nil
		}
		if err := a.fetchGroup(ctx, g.database, g.collection, keys, s); err != nil {
			return s.absorb(ctx, g.database, p.groupDist(g, keys), err)
		}
		return nil
	}
	if workers <= 1 {
		var err error
		p.eachGroup(batchSize, func(g group, keys []string) bool {
			err = flush(ctx, g, keys)
			return err == nil
		})
		return err
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type job struct {
		g    group
		keys []string
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	errOnce := newErrOnce(cancel)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A failed flush keeps draining, so the producer never blocks.
			for j := range jobs {
				errOnce.set(flush(ctx, j.g, j.keys))
			}
		}()
	}
	p.eachGroup(batchSize, func(g group, keys []string) bool {
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

// fetchKeys retrieves one origin's keys with `workers` workers, one store
// round trip per key. The cache is swept up front in the calling goroutine:
// on a warm cache the whole list resolves without spawning anything, and
// only the misses are handed to the workers.
func (a *Augmenter) fetchKeys(ctx context.Context, p *plan, s *sink, keys []core.GlobalKey, workers int) error {
	misses := a.sweepCache(ctx, keys, s)
	return claim(ctx, len(misses), workers, func(ctx context.Context, i int) error {
		gk := misses[i]
		if s.isDegraded(gk.Database) {
			return nil
		}
		obj, ok, err := a.fetchStore(ctx, gk)
		if err != nil {
			return s.absorb(ctx, gk.Database, p.dist(gk), err)
		}
		if ok {
			s.add(obj)
		}
		return nil
	})
}

// claim runs do over the indexes 0..n-1 with at most `workers` workers, each
// claiming the next index by bumping a shared atomic counter: no feed
// channel, no goroutine per item. It stops at the first error, cancelling
// the other workers' context. One worker runs in the calling goroutine,
// in index order.
func claim(ctx context.Context, n, workers int, do func(context.Context, int) error) error {
	var next atomic.Int64
	work := func(ctx context.Context) error {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return nil
			}
			if err := do(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	if workers = min(workers, n); workers <= 1 {
		if err := work(ctx); err != nil {
			return err
		}
		return ctx.Err()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	errOnce := newErrOnce(cancel)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errOnce.set(work(ctx))
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
