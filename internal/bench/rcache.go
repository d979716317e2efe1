package bench

// The result-cache A/B figure, "rcache-warm": warm skewed single-origin
// augmentations at level 2 under concurrent workers, one series with the
// epoch-consistent result cache attached (CACHE-ON) and one without
// (CACHE-OFF). The origin stream is Zipf-distributed (Options.Skew, default
// exponent 1.1) — the hot-key regime where memoization pays, and the regime
// the paper's exploration sessions produce: users re-expand the same few
// objects.
//
// Answers are verified against the uncached reference before anything is
// timed: a cache that wins by being wrong is a bug.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"time"

	"quepa/internal/augment"
	"quepa/internal/core"
	"quepa/internal/rcache"
	"quepa/internal/workload"
)

// rcacheWorkers is the concurrency sweep of the warm figure.
func (o Options) rcacheWorkers() []int {
	if o.Quick {
		return []int{1, 2}
	}
	return []int{1, 2, 4, 8}
}

// rcacheOps is how many augmentations one warm sweep point executes.
func (o Options) rcacheOps() int {
	if o.Quick {
		return 16
	}
	return 200
}

// zipfSequence deals a deterministic Zipf-skewed stream of indexes in
// [0, n): the query mix every rcache series replays identically.
func (o Options) zipfSequence(n, ops int) ([]int, error) {
	if o.Skew <= 1 {
		return nil, fmt.Errorf("bench: -skew %g: the Zipf exponent must be > 1", o.Skew)
	}
	z := rand.NewZipf(rand.New(rand.NewSource(o.Seed)), o.Skew, 1, uint64(n-1))
	seq := make([]int, ops)
	for i := range seq {
		seq[i] = int(z.Uint64())
	}
	return seq, nil
}

// FigRcache measures the CACHE-ON/CACHE-OFF A/B: each point replays the
// same Zipf-skewed origin stream over w workers, warm (the stream has run
// once before the clock starts, so CACHE-ON points measure the steady state
// the cache optimizes and CACHE-OFF points a fair uncached warm run).
func FigRcache(o Options) ([]Point, error) {
	o = o.withDefaults()
	built, err := o.build(2, workload.Centralized()) // 10 databases
	if err != nil {
		return nil, err
	}
	origins := clusterOrigins(built, 64)
	ctx := context.Background()
	var objs []core.Object
	for _, gk := range origins {
		obj, err := built.Poly.Fetch(ctx, gk)
		if err != nil {
			continue
		}
		objs = append(objs, obj)
	}
	if len(objs) < 2 {
		return nil, fmt.Errorf("bench: rcache workload has %d fetchable origins", len(objs))
	}
	ops := o.rcacheOps()
	seq, err := o.zipfSequence(len(objs), ops)
	if err != nil {
		return nil, err
	}

	// Correctness first: the cached augmenter must answer every distinct
	// origin exactly like the uncached one, cold and warm.
	plain := augment.New(built.Poly, built.Index, augment.Config{Strategy: augment.Sequential})
	cachedRef := augment.New(built.Poly, built.Index, augment.Config{Strategy: augment.Sequential})
	cachedRef.SetResultCache(rcache.New(4096))
	for _, obj := range objs {
		want, _, err := plain.AugmentObjects(ctx, []core.Object{obj}, 2)
		if err != nil {
			return nil, err
		}
		for pass := 0; pass < 2; pass++ {
			got, _, err := cachedRef.AugmentObjects(ctx, []core.Object{obj}, 2)
			if err != nil {
				return nil, err
			}
			if !reflect.DeepEqual(got, want) {
				return nil, fmt.Errorf("bench: cached augmentation of %v diverges from uncached", obj.GK)
			}
		}
	}

	var points []Point
	for _, on := range []bool{false, true} {
		series := "CACHE-OFF"
		aug := augment.New(built.Poly, built.Index, augment.Config{Strategy: augment.Sequential})
		if on {
			series = "CACHE-ON"
			aug.SetResultCache(rcache.New(4096))
		}
		for _, w := range o.rcacheWorkers() {
			if _, err := runRcacheStream(ctx, aug, objs, seq, w); err != nil {
				return nil, err // unmeasured warm pass
			}
			elapsed, err := runRcacheStream(ctx, aug, objs, seq, w)
			if err != nil {
				return nil, err
			}
			points = append(points, Point{
				Figure: "rcache-warm",
				Series: series,
				XLabel: "workers",
				X:      float64(w),
				Millis: ms(elapsed),
				Size:   ops,
			})
		}
	}
	return points, nil
}

// runRcacheStream replays the skewed index sequence over w workers and
// reports the wall time of the whole stream.
func runRcacheStream(ctx context.Context, aug *augment.Augmenter, objs []core.Object, seq []int, workers int) (time.Duration, error) {
	if workers > len(seq) {
		workers = len(seq)
	}
	feed := make(chan int, len(seq))
	for _, i := range seq {
		feed <- i
	}
	close(feed)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range feed {
				if _, _, err := aug.AugmentObjects(ctx, []core.Object{objs[i]}, 2); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}
