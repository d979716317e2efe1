package optimizer

import (
	"math/rand"
	"testing"
	"time"

	"quepa/internal/augment"
)

// syntheticCost is a ground-truth cost model with a clear structure the
// optimizer should learn:
//   - distributed deployments are dominated by round trips: batching wins;
//   - tiny centralized queries: sequential wins (thread overhead);
//   - everything else: outer-batch wins.
func syntheticCost(f QueryFeatures, cfg augment.Config) time.Duration {
	objects := float64(f.AugmentedSize)
	rtt := 0.05 // ms, centralized
	if f.Distributed {
		rtt = 2.0
	}
	queries := objects
	if cfg.Strategy.Batched() {
		bs := float64(cfg.BatchSize)
		if bs < 1 {
			bs = 1
		}
		queries = objects/bs + float64(f.NumStores)
	}
	threadFactor := 1.0
	setup := 0.0
	if cfg.Strategy.Concurrent() {
		t := float64(cfg.ThreadsSize)
		if t < 1 {
			t = 1
		}
		if t > 16 {
			t = 16
		}
		threadFactor = 1/t + 0.02*t // speedup with a small per-thread overhead
		setup = 0.1 * t             // fixed thread creation/synchronization cost
	}
	perObject := 0.001
	cost := queries*rtt*threadFactor + objects*perObject + setup
	return time.Duration(cost * float64(time.Millisecond))
}

// trainingConfigs is the configuration grid every query is "run" with.
func trainingConfigs() []augment.Config {
	return []augment.Config{
		{Strategy: augment.Sequential},
		{Strategy: augment.Batch, BatchSize: 100},
		{Strategy: augment.Batch, BatchSize: 1000},
		{Strategy: augment.Inner, ThreadsSize: 8},
		{Strategy: augment.Outer, ThreadsSize: 8},
		{Strategy: augment.OuterBatch, BatchSize: 100, ThreadsSize: 8},
		{Strategy: augment.OuterBatch, BatchSize: 1000, ThreadsSize: 16},
		{Strategy: augment.OuterInner, ThreadsSize: 8},
	}
}

// trainOn builds logs by running every strategy over a grid of queries with
// the synthetic cost model.
func trainOn(a *Adaptive) {
	grid := []QueryFeatures{}
	for _, rs := range []int{10, 100, 1000, 10000} {
		for _, stores := range []int{4, 7, 10, 13} {
			for _, dist := range []bool{false, true} {
				for _, level := range []int{0, 1} {
					grid = append(grid, QueryFeatures{
						ResultSize: rs, AugmentedSize: rs * 4, Level: level,
						NumStores: stores, Distributed: dist,
					})
				}
			}
		}
	}
	for _, f := range grid {
		for _, cfg := range trainingConfigs() {
			a.Log(RunLog{Features: f, Config: cfg, Duration: syntheticCost(f, cfg)})
		}
	}
}

func TestTrainRequiresLogs(t *testing.T) {
	a := NewAdaptive()
	if err := a.Train(); err == nil {
		t.Error("training without logs should fail")
	}
	if _, d := a.ChooseExplained(QueryFeatures{}, 0); d.Trained {
		t.Error("untrained optimizer reports a trained decision")
	}
}

func TestUntrainedFallback(t *testing.T) {
	a := NewAdaptive()
	cfg := a.Choose(QueryFeatures{ResultSize: 100}, 500)
	if cfg.Strategy != augment.OuterBatch || cfg.CacheSize != 500 {
		t.Errorf("fallback config = %+v", cfg)
	}
}

func TestAdaptiveLearnsCostStructure(t *testing.T) {
	a := NewAdaptive()
	trainOn(a)
	if err := a.Train(); err != nil {
		t.Fatal(err)
	}
	if _, d := a.ChooseExplained(QueryFeatures{}, 0); !d.Trained {
		t.Fatal("no trained decision after Train")
	}

	// Distributed large query: a batched augmenter must be chosen.
	cfg := a.Choose(QueryFeatures{ResultSize: 10000, AugmentedSize: 40000, NumStores: 10, Distributed: true}, 0)
	if !cfg.Strategy.Batched() {
		t.Errorf("distributed large query chose %v", cfg.Strategy)
	}
	if cfg.BatchSize < 10 {
		t.Errorf("batched strategy with BatchSize %d", cfg.BatchSize)
	}

	// Regret bound: on held-out queries, the chosen configuration must be
	// within 3x of the best configuration in the training grid.
	heldOut := []QueryFeatures{
		{ResultSize: 10, AugmentedSize: 40, NumStores: 4},
		{ResultSize: 300, AugmentedSize: 1200, NumStores: 7},
		{ResultSize: 3000, AugmentedSize: 12000, NumStores: 10, Distributed: true},
		{ResultSize: 20000, AugmentedSize: 80000, NumStores: 13},
	}
	for _, f := range heldOut {
		chosen := syntheticCost(f, a.Choose(f, 0))
		best := time.Duration(1 << 62)
		for _, c := range trainingConfigs() {
			if cost := syntheticCost(f, c); cost < best {
				best = cost
			}
		}
		if chosen > 3*best {
			t.Errorf("query %+v: chosen cost %v vs best %v (regret > 3x)", f, chosen, best)
		}
	}
}

func TestAdaptiveBeatsRandomOnHeldOut(t *testing.T) {
	a := NewAdaptive()
	trainOn(a)
	if err := a.Train(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	random := NewRandom(10)
	var adaptiveTotal, randomTotal time.Duration
	for i := 0; i < 50; i++ {
		f := QueryFeatures{
			ResultSize:  50 + rng.Intn(20000),
			NumStores:   3 + rng.Intn(12),
			Distributed: rng.Intn(2) == 0,
			Level:       rng.Intn(2),
		}
		f.AugmentedSize = f.ResultSize * (2 + rng.Intn(5))
		adaptiveTotal += syntheticCost(f, a.Choose(f, 0))
		randomTotal += syntheticCost(f, random.Choose(f, 0))
	}
	if adaptiveTotal >= randomTotal {
		t.Errorf("ADAPTIVE (%v) not better than RANDOM (%v) on held-out queries", adaptiveTotal, randomTotal)
	}
}

func TestCacheSizeMovesIncrementally(t *testing.T) {
	a := NewAdaptive()
	// Logs where the best runs all use CACHE_SIZE = 1000.
	for i := 0; i < 20; i++ {
		f := QueryFeatures{ResultSize: 100 * (i + 1), AugmentedSize: 400 * (i + 1), NumStores: 5}
		a.Log(RunLog{Features: f, Config: augment.Config{Strategy: augment.Outer, ThreadsSize: 8, CacheSize: 1000}, Duration: time.Millisecond})
		a.Log(RunLog{Features: f, Config: augment.Config{Strategy: augment.Sequential, CacheSize: 0}, Duration: time.Second})
	}
	if err := a.Train(); err != nil {
		t.Fatal(err)
	}
	cfg := a.Choose(QueryFeatures{ResultSize: 500, AugmentedSize: 2000, NumStores: 5}, 0)
	// (1000 - 0) / 10 = 100: one step toward the prediction.
	if cfg.CacheSize != 100 {
		t.Errorf("cache step = %d, want 100", cfg.CacheSize)
	}
	cfg = a.Choose(QueryFeatures{ResultSize: 500, AugmentedSize: 2000, NumStores: 5}, 900)
	if cfg.CacheSize != 910 {
		t.Errorf("cache step from 900 = %d, want 910", cfg.CacheSize)
	}
	// Moving down works too and never goes negative.
	cfg = a.Choose(QueryFeatures{ResultSize: 500, AugmentedSize: 2000, NumStores: 5}, 20000)
	if cfg.CacheSize >= 20000 {
		t.Errorf("cache did not shrink: %d", cfg.CacheSize)
	}
}

func TestAutoRetrain(t *testing.T) {
	a := NewAdaptive()
	a.RetrainEvery = 10
	f := QueryFeatures{ResultSize: 100, AugmentedSize: 400, NumStores: 5}
	for i := 0; i < 10; i++ {
		a.Log(RunLog{
			Features: QueryFeatures{ResultSize: 100 + i, AugmentedSize: 400, NumStores: 5},
			Config:   augment.Config{Strategy: augment.Outer, ThreadsSize: 4},
			Duration: time.Millisecond,
		})
	}
	if _, d := a.ChooseExplained(f, 0); !d.Trained {
		t.Fatal("auto-retrain did not fire")
	}
	if got := a.Choose(f, 0).Strategy; got != augment.Outer {
		t.Errorf("after auto-retrain chose %v", got)
	}
	if n := len(keptRuns(a)); n != 10 {
		t.Errorf("log holds %d runs, want 10", n)
	}
}

func TestTreeStrings(t *testing.T) {
	a := NewAdaptive()
	if len(a.TreeStrings()) != 0 {
		t.Error("untrained TreeStrings should be empty")
	}
	trainOn(a)
	if err := a.Train(); err != nil {
		t.Fatal(err)
	}
	trees := a.TreeStrings()
	if trees["T1"] == "" || trees["T4"] == "" {
		t.Errorf("missing tree renderings: %v", trees)
	}
}

func TestHumanRules(t *testing.T) {
	h := Human{}
	if h.Name() != "HUMAN" {
		t.Error("name")
	}
	if cfg := h.Choose(QueryFeatures{AugmentedSize: 8, NumStores: 3}, 0); cfg.Strategy != augment.Sequential {
		t.Errorf("tiny query: %v", cfg.Strategy)
	}
	if cfg := h.Choose(QueryFeatures{AugmentedSize: 5000, Distributed: true}, 0); !cfg.Strategy.Batched() {
		t.Errorf("distributed: %v", cfg.Strategy)
	}
	if cfg := h.Choose(QueryFeatures{AugmentedSize: 5000, NumStores: 10}, 0); cfg.Strategy != augment.OuterBatch {
		t.Errorf("large centralized: %v", cfg.Strategy)
	}
	if cfg := h.Choose(QueryFeatures{AugmentedSize: 200, NumStores: 10}, 0); cfg.Strategy != augment.Outer {
		t.Errorf("medium: %v", cfg.Strategy)
	}
}

func TestRandomCoversSpace(t *testing.T) {
	r := NewRandom(1)
	if r.Name() != "RANDOM" {
		t.Error("name")
	}
	seen := map[augment.Strategy]bool{}
	for i := 0; i < 200; i++ {
		cfg := r.Choose(QueryFeatures{}, 0)
		seen[cfg.Strategy] = true
		if cfg.BatchSize < 1 || cfg.ThreadsSize < 1 {
			t.Errorf("degenerate random config: %+v", cfg)
		}
	}
	if len(seen) != len(augment.Strategies) {
		t.Errorf("random covered %d strategies", len(seen))
	}
}

func TestOptimizerInterfaces(t *testing.T) {
	var _ Optimizer = NewAdaptive()
	var _ Optimizer = Human{}
	var _ Optimizer = NewRandom(0)
}
