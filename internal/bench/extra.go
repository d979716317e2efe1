package bench

import (
	"context"
	"time"

	"quepa/internal/aindex"
	"quepa/internal/augment"
	"quepa/internal/core"
	"quepa/internal/workload"
)

// This file holds two experiments beyond the paper's plotted figures:
//
//   - ExtraCache regenerates the memory-based study the paper describes but
//     omits "for lack of space" (Section VII-B(c)): the effect of CACHE_SIZE
//     in the centralized vs the distributed deployment. Expected shape:
//     centralized runs are largely insensitive to the cache (each store has
//     its own caching, making QUEPA's partly redundant), while in the
//     distributed deployment caching pays because it saves inter-machine
//     round trips.
//
//   - ExtraAblation quantifies a design decision of Section III-C: enforcing
//     the Consistency Condition by materializing inferred p-relations at
//     insertion time. The ablated index stores only the asserted relations;
//     the experiment reports insertion cost, index size and — the point of
//     the design — how many related objects a level-0 augmentation reaches
//     with and without materialization.

// cacheSizes is the CACHE_SIZE sweep.
func (o Options) cacheSizes() []int {
	if o.Quick {
		return []int{0, 16}
	}
	return []int{0, 100, 1000, 10000, 100000}
}

// ExtraCache measures a repeated-query workload (the cache's use case: the
// augmented results of consecutive queries overlap) under both deployments,
// sweeping CACHE_SIZE.
func ExtraCache(o Options) ([]Point, error) {
	o = o.withDefaults()
	deployments := []struct {
		name   string
		deploy workload.Deployment
	}{
		{"centralized", workload.Centralized()},
		{"distributed", workload.Distributed()},
	}
	var points []Point
	for _, d := range deployments {
		built, err := o.build(1, d.deploy)
		if err != nil {
			return nil, err
		}
		// Three overlapping queries: consecutive seq windows sharing half
		// their objects, run twice each — the second round is where the
		// cache can help.
		mid := o.midQuery()
		queries := make([]string, 0, 3)
		for _, size := range []int{mid, mid + mid/2, mid * 2} {
			q, err := built.Query("transactions", size)
			if err != nil {
				return nil, err
			}
			queries = append(queries, q)
		}
		for _, cs := range o.cacheSizes() {
			aug := augment.New(built.Poly, built.Index, augment.Config{
				Strategy: augment.Batch, BatchSize: 100, CacheSize: cs,
			})
			start := time.Now()
			var size int
			for round := 0; round < 2; round++ {
				for _, q := range queries {
					answer, err := aug.Search(ctxBackground, "transactions", q, 0)
					if err != nil {
						return nil, err
					}
					size = answer.Size()
				}
			}
			points = append(points, Point{
				Figure: "cache(" + d.name + ")", Series: d.name,
				XLabel: "CACHE_SIZE", X: float64(cs),
				Millis: ms(time.Since(start)), Size: size,
			})
		}
	}
	return points, nil
}

// ExtraAblation compares the materialized A' index against an ablated one
// holding only asserted edges. Series:
//
//	"materialized ..." vs "raw ..." with X = 1 for build time (ms),
//	X = 2 for edge count, X = 3 for objects reached by a level-0
//	augmentation of the evaluation query.
func ExtraAblation(o Options) ([]Point, error) {
	o = o.withDefaults()
	// Both variants load the exact assertion stream the generator produced;
	// the materialized variant additionally computes the closure.
	built, recorded, err := workload.BuildWithRelations(o.spec(1), workload.Colocated())
	if err != nil {
		return nil, err
	}

	var points []Point
	query, err := built.Query("transactions", o.midQuery())
	if err != nil {
		return nil, err
	}

	type variant struct {
		name   string
		insert func(*aindex.Index, core.PRelation) error
	}
	for _, v := range []variant{
		{"materialized", (*aindex.Index).Insert},
		{"raw", (*aindex.Index).InsertRaw},
	} {
		ix := aindex.New()
		start := time.Now()
		for _, r := range recorded {
			if err := v.insert(ix, r); err != nil {
				return nil, err
			}
		}
		buildMS := ms(time.Since(start))

		aug := augment.New(built.Poly, ix, augment.Config{Strategy: augment.Batch, BatchSize: 100})
		answer, err := aug.Search(ctxBackground, "transactions", query, 0)
		if err != nil {
			return nil, err
		}
		points = append(points,
			Point{Figure: "ablation", Series: v.name + " build", XLabel: "metric", X: 1, Millis: buildMS},
			Point{Figure: "ablation", Series: v.name + " edges", XLabel: "metric", X: 2, Millis: float64(ix.EdgeCount())},
			Point{Figure: "ablation", Series: v.name + " level-0 reach", XLabel: "metric", X: 3, Millis: float64(len(answer.Augmented)), Size: answer.Size()},
		)
	}
	return points, nil
}

var ctxBackground = context.Background()
