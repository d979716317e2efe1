package bench

import (
	"fmt"

	"quepa/internal/augment"
	"quepa/internal/workload"
)

// This file regenerates Figs. 9–11: the network- and CPU-oriented
// experiments on QUEPA's own augmenters.

// Fig9 reproduces Fig. 9(a,b): BATCH and OUTER-BATCH execution time as a
// function of BATCH_SIZE over queries with the largest result size, in a
// 10-store centralized polystore; (a) is a cold-cache run at level 0, (b) a
// warm-cache run at level 1.
func Fig9(o Options) ([]Point, error) {
	o = o.withDefaults()
	built, err := o.build(2, workload.Centralized()) // 10 databases
	if err != nil {
		return nil, err
	}
	query, err := built.Query("transactions", o.largestQuery())
	if err != nil {
		return nil, err
	}
	var points []Point
	for _, strategy := range []augment.Strategy{augment.Batch, augment.OuterBatch} {
		for _, bs := range o.batchSizes() {
			aug := augment.New(built.Poly, built.Index, augment.Config{
				Strategy: strategy, BatchSize: bs, ThreadsSize: 4, CacheSize: 100000,
			})
			// Level 0 cold for (a); level 1 warm for (b), matching the paper.
			cold, _, size0, err := coldWarm(aug, "transactions", query, 0)
			if err != nil {
				return nil, err
			}
			_, warm, size1, err := coldWarm(aug, "transactions", query, 1)
			if err != nil {
				return nil, err
			}
			points = append(points,
				Point{Figure: "9a", Series: strategy.String(), XLabel: "BATCH_SIZE", X: float64(bs), Millis: ms(cold), Size: size0},
				Point{Figure: "9b", Series: strategy.String(), XLabel: "BATCH_SIZE", X: float64(bs), Millis: ms(warm), Size: size1},
			)
		}
	}
	return points, nil
}

// Fig10ab reproduces Fig. 10(a,b): batching against the sequential
// augmenter in the distributed deployment, varying BATCH_SIZE; cold (a) and
// warm (b).
func Fig10ab(o Options) ([]Point, error) {
	o = o.withDefaults()
	built, err := o.build(2, workload.Distributed())
	if err != nil {
		return nil, err
	}
	query, err := built.Query("transactions", o.midQuery())
	if err != nil {
		return nil, err
	}
	var points []Point

	// SEQUENTIAL is the flat reference series: one measurement replicated
	// over the x axis, as in the paper's plots.
	seq := augment.New(built.Poly, built.Index, augment.Config{Strategy: augment.Sequential, CacheSize: 100000})
	seqCold, seqWarm, size, err := coldWarm(seq, "transactions", query, 0)
	if err != nil {
		return nil, err
	}
	for _, bs := range o.batchSizes() {
		points = append(points,
			Point{Figure: "10a", Series: "SEQUENTIAL", XLabel: "BATCH_SIZE", X: float64(bs), Millis: ms(seqCold), Size: size},
			Point{Figure: "10b", Series: "SEQUENTIAL", XLabel: "BATCH_SIZE", X: float64(bs), Millis: ms(seqWarm), Size: size},
		)
	}
	for _, strategy := range []augment.Strategy{augment.Batch, augment.OuterBatch} {
		for _, bs := range o.batchSizes() {
			aug := augment.New(built.Poly, built.Index, augment.Config{
				Strategy: strategy, BatchSize: bs, ThreadsSize: 4, CacheSize: 100000,
			})
			cold, warm, size, err := coldWarm(aug, "transactions", query, 0)
			if err != nil {
				return nil, err
			}
			points = append(points,
				Point{Figure: "10a", Series: strategy.String(), XLabel: "BATCH_SIZE", X: float64(bs), Millis: ms(cold), Size: size},
				Point{Figure: "10b", Series: strategy.String(), XLabel: "BATCH_SIZE", X: float64(bs), Millis: ms(warm), Size: size},
			)
		}
	}
	return points, nil
}

// Fig10cd reproduces Fig. 10(c,d): scalability of batching with the query
// size in the distributed deployment; cold (c) and warm (d).
func Fig10cd(o Options) ([]Point, error) {
	o = o.withDefaults()
	built, err := o.build(2, workload.Distributed())
	if err != nil {
		return nil, err
	}
	configs := []augment.Config{
		{Strategy: augment.Sequential, CacheSize: 100000},
		{Strategy: augment.Batch, BatchSize: 1000, CacheSize: 100000},
		{Strategy: augment.OuterBatch, BatchSize: 1000, ThreadsSize: 4, CacheSize: 100000},
	}
	var points []Point
	for _, cfg := range configs {
		aug := augment.New(built.Poly, built.Index, cfg)
		for _, qs := range o.querySizes() {
			query, err := built.Query("transactions", qs)
			if err != nil {
				return nil, err
			}
			cold, warm, size, err := coldWarm(aug, "transactions", query, 0)
			if err != nil {
				return nil, err
			}
			points = append(points,
				Point{Figure: "10c", Series: cfg.Strategy.String(), XLabel: "query_size", X: float64(qs), Millis: ms(cold), Size: size},
				Point{Figure: "10d", Series: cfg.Strategy.String(), XLabel: "query_size", X: float64(qs), Millis: ms(warm), Size: size},
			)
		}
	}
	return points, nil
}

// Fig11ab reproduces Fig. 11(a,b): the concurrent augmenters as a function
// of THREADS_SIZE, centralized, largest query; cold (a) and warm (b).
func Fig11ab(o Options) ([]Point, error) {
	o = o.withDefaults()
	built, err := o.build(2, workload.Centralized())
	if err != nil {
		return nil, err
	}
	query, err := built.Query("transactions", o.largestQuery())
	if err != nil {
		return nil, err
	}
	strategies := []augment.Strategy{augment.Inner, augment.Outer, augment.OuterBatch, augment.OuterInner}
	var points []Point
	for _, strategy := range strategies {
		for _, ts := range o.threadSizes() {
			aug := augment.New(built.Poly, built.Index, augment.Config{
				Strategy: strategy, ThreadsSize: ts, BatchSize: 100, CacheSize: 100000,
			})
			cold, warm, size, err := coldWarm(aug, "transactions", query, 0)
			if err != nil {
				return nil, err
			}
			points = append(points,
				Point{Figure: "11a", Series: strategy.String(), XLabel: "THREADS_SIZE", X: float64(ts), Millis: ms(cold), Size: size},
				Point{Figure: "11b", Series: strategy.String(), XLabel: "THREADS_SIZE", X: float64(ts), Millis: ms(warm), Size: size},
			)
		}
	}
	return points, nil
}

// allSixConfigs returns the default parameterization of every augmenter for
// the scalability sweeps of Fig. 11(c–f).
func allSixConfigs() []augment.Config {
	return []augment.Config{
		{Strategy: augment.Sequential, CacheSize: 100000},
		{Strategy: augment.Batch, BatchSize: 100, CacheSize: 100000},
		{Strategy: augment.Inner, ThreadsSize: 16, CacheSize: 100000},
		{Strategy: augment.Outer, ThreadsSize: 16, CacheSize: 100000},
		{Strategy: augment.OuterBatch, BatchSize: 100, ThreadsSize: 16, CacheSize: 100000},
		{Strategy: augment.OuterInner, ThreadsSize: 16, CacheSize: 100000},
	}
}

// Fig11cd reproduces Fig. 11(c,d): all six augmenters against the query
// size in a 10-store centralized polystore; cold (c) and warm (d). As in
// the paper, "when experiments are shown with respect to the query size, we
// show the average execution time of the corresponding queries on each
// target database": every point averages one query per base store.
func Fig11cd(o Options) ([]Point, error) {
	o = o.withDefaults()
	built, err := o.build(2, workload.Centralized())
	if err != nil {
		return nil, err
	}
	targets := built.QueryTargets()
	if o.Quick {
		targets = targets[:1]
	}
	var points []Point
	for _, cfg := range allSixConfigs() {
		aug := augment.New(built.Poly, built.Index, cfg)
		for _, qs := range o.querySizes() {
			var coldSum, warmSum float64
			sizeSum := 0
			for _, target := range targets {
				query, err := built.Query(target, qs)
				if err != nil {
					return nil, err
				}
				cold, warm, size, err := coldWarm(aug, target, query, 0)
				if err != nil {
					return nil, err
				}
				coldSum += ms(cold)
				warmSum += ms(warm)
				sizeSum += size
			}
			n := float64(len(targets))
			points = append(points,
				Point{Figure: "11c", Series: cfg.Strategy.String(), XLabel: "query_size", X: float64(qs), Millis: coldSum / n, Size: sizeSum / len(targets)},
				Point{Figure: "11d", Series: cfg.Strategy.String(), XLabel: "query_size", X: float64(qs), Millis: warmSum / n, Size: sizeSum / len(targets)},
			)
		}
	}
	return points, nil
}

// Fig11ef reproduces Fig. 11(e,f): all six augmenters against the number of
// databases in the polystore (4, 7, 10, 13), fixed query size; cold (e) and
// warm (f).
func Fig11ef(o Options) ([]Point, error) {
	o = o.withDefaults()
	var points []Point
	for _, rounds := range o.storeRounds() {
		built, err := o.build(rounds, workload.Centralized())
		if err != nil {
			return nil, err
		}
		dbs := float64(built.Spec.Databases())
		query, err := built.Query("transactions", o.midQuery())
		if err != nil {
			return nil, err
		}
		for _, cfg := range allSixConfigs() {
			aug := augment.New(built.Poly, built.Index, cfg)
			cold, warm, size, err := coldWarm(aug, "transactions", query, 0)
			if err != nil {
				return nil, err
			}
			points = append(points,
				Point{Figure: "11e", Series: cfg.Strategy.String(), XLabel: "databases", X: dbs, Millis: ms(cold), Size: size},
				Point{Figure: "11f", Series: cfg.Strategy.String(), XLabel: "databases", X: dbs, Millis: ms(warm), Size: size},
			)
		}
	}
	return points, nil
}

// FigureNames lists the figure ids the harness can regenerate. "cache",
// "ablation", "build" and "recovery" are experiments beyond the paper's
// plotted figures: the memory-based study Section VII-B(c) describes without
// a plot, the consistency-materialization ablation, the A' construction
// sweep (object count × collector workers), and the crash-recovery-vs-
// re-collection comparison of the durability subsystem.
func FigureNames() []string {
	return []string{"9", "10ab", "10cd", "11ab", "11cd", "11ef", "12", "13ab", "13cd", "cache", "ablation", "build", "recovery"}
}

// Run executes one figure by id.
func Run(id string, o Options) ([]Point, error) {
	switch id {
	case "9", "9a", "9b":
		return Fig9(o)
	case "10ab", "10a", "10b":
		return Fig10ab(o)
	case "10cd", "10c", "10d":
		return Fig10cd(o)
	case "11ab", "11a", "11b":
		return Fig11ab(o)
	case "11cd", "11c", "11d":
		return Fig11cd(o)
	case "11ef", "11e", "11f":
		return Fig11ef(o)
	case "12", "12a", "12b":
		return Fig12(o)
	case "13ab", "13a", "13b":
		return Fig13ab(o)
	case "13cd", "13c", "13d":
		return Fig13cd(o)
	case "cache":
		return ExtraCache(o)
	case "ablation":
		return ExtraAblation(o)
	case "build":
		return FigBuild(o)
	case "recovery":
		return FigRecovery(o)
	default:
		return nil, fmt.Errorf("bench: unknown figure %q (known: %v)", id, FigureNames())
	}
}
