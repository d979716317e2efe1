// Package optimizer implements the adaptive augmentation optimizer of
// Section V: a rule-based optimizer that learns, from the logs of completed
// augmentation runs, which augmenter and which parameters to use for a
// query. Four models are trained (Phase 2):
//
//	T1 — a C4.5 decision tree choosing the augmenter,
//	T2 — a regression tree predicting BATCH_SIZE (when T1 picks a batched
//	     augmenter),
//	T3 — a regression tree predicting THREADS_SIZE (when T1 picks a
//	     concurrent augmenter),
//	T4 — a regression tree predicting CACHE_SIZE.
//
// Prediction (Phase 3) composes them; the cache size moves toward the
// prediction by (predicted-current)/10 per query rather than jumping, since
// cache benefits accrue across future queries.
//
// The package also provides the HUMAN and RANDOM baseline optimizers the
// paper compares against in Fig. 12.
package optimizer

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"quepa/internal/augment"
	"quepa/internal/explain"
	"quepa/internal/ml/c45"
	"quepa/internal/ml/reptree"
	"quepa/internal/telemetry"
)

// Fallback decisions — an untrained optimizer, or a T1 prediction that does
// not parse as a strategy — are no longer silent: they are counted here by
// reason and surfaced in the explain.Decision of the query that hit them.
var (
	fallbackUntrained = telemetry.NewCounter("quepa_optimizer_fallback_total",
		"adaptive optimizer decisions that fell back to the default OUTER-BATCH configuration",
		telemetry.L("reason", "untrained"))
	fallbackParse = telemetry.NewCounter("quepa_optimizer_fallback_total",
		"adaptive optimizer decisions that fell back to the default OUTER-BATCH configuration",
		telemetry.L("reason", "parse_strategy"))
	retrains = telemetry.NewCounter("quepa_optimizer_retrain_total",
		"successful Train calls on the adaptive optimizer")
)

// QueryFeatures are the query characteristics recorded in the run logs and
// used for prediction: "target database, number of original data objects in
// the result, number of augmented data objects" plus the deployment shape.
type QueryFeatures struct {
	ResultSize    int  // data objects in the local result
	AugmentedSize int  // data objects in the augmentation
	Level         int  // augmentation level
	NumStores     int  // databases in the polystore
	Distributed   bool // deployment: false = centralized
}

// featureNames must match vector().
var featureNames = []string{"result_size", "augmented_size", "level", "num_stores", "distributed"}

func (f QueryFeatures) vector() []float64 {
	d := 0.0
	if f.Distributed {
		d = 1
	}
	return []float64{
		float64(f.ResultSize),
		float64(f.AugmentedSize),
		float64(f.Level),
		float64(f.NumStores),
		d,
	}
}

// RunLog is one completed augmentation run (Phase 1).
type RunLog struct {
	Features QueryFeatures
	Config   augment.Config
	Duration time.Duration
}

// Optimizer chooses a configuration for a query. ADAPTIVE, HUMAN and RANDOM
// all satisfy it.
type Optimizer interface {
	Name() string
	// Choose returns the configuration to run the query with. currentCache
	// is the augmenter's present CACHE_SIZE (used by ADAPTIVE's incremental
	// adjustment; the baselines ignore it).
	Choose(f QueryFeatures, currentCache int) augment.Config
}

// Adaptive is the learned optimizer. It is safe for concurrent use.
type Adaptive struct {
	mu sync.Mutex
	// logs is the run log; once MaxLogs runs exist it is a ring whose oldest
	// entry sits at head, and a new run overwrites it in place.
	logs []RunLog
	head int
	t1   *c45.Tree
	t2   *reptree.Tree
	t3   *reptree.Tree
	t4   *reptree.Tree
	// RetrainEvery triggers automatic retraining after this many new logs
	// (0 disables; Train can always be called explicitly).
	RetrainEvery int
	// MaxLogs bounds the run-log ring (0 = unbounded). Long-running servers
	// set it so training cost and memory stay flat; the newest runs win.
	MaxLogs    int
	sinceTrain int
}

// NewAdaptive creates an untrained adaptive optimizer.
func NewAdaptive() *Adaptive { return &Adaptive{} }

// Name implements Optimizer.
func (a *Adaptive) Name() string { return "ADAPTIVE" }

// Log records a completed run (Phase 1) and retrains when the automatic
// retraining threshold is reached.
func (a *Adaptive) Log(r RunLog) {
	a.mu.Lock()
	a.record(r)
	a.sinceTrain++
	retrain := a.RetrainEvery > 0 && a.sinceTrain >= a.RetrainEvery
	a.mu.Unlock()
	if retrain {
		// Best effort: keep the old models on failure, but say so.
		if err := a.Train(); err != nil {
			telemetry.LogEvery(10, telemetry.LogWarn, "optimizer retrain failed",
				telemetry.F("error", err.Error()))
		}
	}
}

// record adds r as the newest run, in O(1) once the ring is full. The two
// re-linearizations only run after MaxLogs was changed on a live log. mu is
// held.
func (a *Adaptive) record(r RunLog) {
	if a.MaxLogs <= 0 || len(a.logs) < a.MaxLogs {
		if a.head != 0 {
			a.logs, a.head = a.chronological(), 0
		}
		a.logs = append(a.logs, r)
		return
	}
	if len(a.logs) > a.MaxLogs {
		a.logs, a.head = a.chronological()[len(a.logs)-a.MaxLogs:], 0
	}
	a.logs[a.head] = r
	a.head = (a.head + 1) % len(a.logs)
}

// chronological returns a copy of the run log, oldest run first. mu is held.
func (a *Adaptive) chronological() []RunLog {
	out := make([]RunLog, 0, len(a.logs))
	out = append(out, a.logs[a.head:]...)
	return append(out, a.logs[:a.head]...)
}

// Train fits T1–T4 on the recorded logs (Phase 2). For every distinct query
// (grouped by features) the fastest run provides the training example: its
// strategy labels T1, and its parameters feed the regression trees. The
// examples reach the learners in the order their queries were first seen,
// so training on the same log yields the same trees.
func (a *Adaptive) Train() error {
	a.mu.Lock()
	logs := a.chronological()
	a.mu.Unlock()

	if len(logs) == 0 {
		return fmt.Errorf("optimizer: no run logs to train on")
	}
	var best []RunLog
	seen := map[QueryFeatures]int{} // features -> index in best
	for _, r := range logs {
		i, ok := seen[r.Features]
		switch {
		case !ok:
			seen[r.Features] = len(best)
			best = append(best, r)
		case r.Duration < best[i].Duration:
			best[i] = r
		}
	}

	var t1Examples []c45.Example
	var t2Examples, t3Examples, t4Examples []reptree.Example
	for _, r := range best {
		v := r.Features.vector()
		t1Examples = append(t1Examples, c45.Example{Features: v, Label: r.Config.Strategy.String()})
		if r.Config.Strategy.Batched() {
			t2Examples = append(t2Examples, reptree.Example{Features: v, Target: float64(r.Config.BatchSize)})
		}
		if r.Config.Strategy.Concurrent() {
			t3Examples = append(t3Examples, reptree.Example{Features: v, Target: float64(r.Config.ThreadsSize)})
		}
		t4Examples = append(t4Examples, reptree.Example{Features: v, Target: float64(r.Config.CacheSize)})
	}

	t1, err := c45.Train(t1Examples, featureNames, c45.Config{MinLeaf: 1, Prune: true})
	if err != nil {
		return fmt.Errorf("optimizer: training T1: %w", err)
	}
	train := func(examples []reptree.Example, what string) (*reptree.Tree, error) {
		if len(examples) == 0 {
			return nil, nil
		}
		t, err := reptree.Train(examples, featureNames, reptree.Config{MinLeaf: 1, Prune: len(examples) >= 16})
		if err != nil {
			return nil, fmt.Errorf("optimizer: training %s: %w", what, err)
		}
		return t, nil
	}
	t2, err := train(t2Examples, "T2")
	if err != nil {
		return err
	}
	t3, err := train(t3Examples, "T3")
	if err != nil {
		return err
	}
	t4, err := train(t4Examples, "T4")
	if err != nil {
		return err
	}

	a.mu.Lock()
	a.t1, a.t2, a.t3, a.t4 = t1, t2, t3, t4
	a.sinceTrain = 0
	a.mu.Unlock()
	retrains.Inc()
	telemetry.Log(telemetry.LogInfo, "optimizer retrain",
		telemetry.F("runs", len(logs)),
		telemetry.F("examples", len(t1Examples)))
	return nil
}

// Choose implements Optimizer (Phase 3). An untrained optimizer falls back
// to a safe default configuration.
func (a *Adaptive) Choose(f QueryFeatures, currentCache int) augment.Config {
	cfg, _ := a.ChooseExplained(f, currentCache)
	return cfg
}

// ChooseExplained is Choose plus full decision provenance: the feature
// vector handed to the trees, each tree's raw prediction and the clamping
// applied to it, and — when the decision fell back to OUTER-BATCH — the
// reason why. The config returned is identical to Choose's.
func (a *Adaptive) ChooseExplained(f QueryFeatures, currentCache int) (augment.Config, explain.Decision) {
	a.mu.Lock()
	t1, t2, t3, t4 := a.t1, a.t2, a.t3, a.t4
	a.mu.Unlock()

	d := explain.Decision{
		Optimizer:    a.Name(),
		FeatureNames: append([]string(nil), featureNames...),
		Features:     f.vector(),
	}
	if t1 == nil {
		cfg := augment.Config{Strategy: augment.OuterBatch, CacheSize: currentCache}
		d.FallbackReason = "optimizer not trained yet; using default OUTER-BATCH"
		d.Chosen = chosen(cfg)
		fallbackUntrained.Inc()
		telemetry.LogEvery(100, telemetry.LogWarn, "optimizer fallback",
			telemetry.F("reason", "untrained"))
		return cfg, d
	}
	d.Trained = true
	v := d.Features

	label := t1.Predict(v)
	strategy, err := augment.ParseStrategy(label)
	t1Vote := explain.TreeVote{Tree: "T1", Consulted: true, Raw: label}
	if err != nil {
		strategy = augment.OuterBatch
		d.FallbackReason = fmt.Sprintf("T1 predicted unknown strategy %q; forced OUTER-BATCH", label)
		fallbackParse.Inc()
		telemetry.LogEvery(100, telemetry.LogWarn, "optimizer fallback",
			telemetry.F("reason", "parse_strategy"), telemetry.F("label", label))
	}
	t1Vote.Clamped = strategy.String()
	d.Trees = append(d.Trees, t1Vote)

	cfg := augment.Config{Strategy: strategy, CacheSize: currentCache}
	t2Vote := explain.TreeVote{Tree: "T2"}
	switch {
	case !strategy.Batched():
		t2Vote.Note = "strategy not batched"
	case t2 == nil:
		t2Vote.Note = "not trained"
	default:
		raw := t2.Predict(v)
		cfg.BatchSize = clampInt(int(raw+0.5), 1, 1<<20)
		t2Vote.Consulted = true
		t2Vote.Raw = strconv.FormatFloat(raw, 'g', -1, 64)
		t2Vote.Clamped = strconv.Itoa(cfg.BatchSize)
	}
	d.Trees = append(d.Trees, t2Vote)

	t3Vote := explain.TreeVote{Tree: "T3"}
	switch {
	case !strategy.Concurrent():
		t3Vote.Note = "strategy not concurrent"
	case t3 == nil:
		t3Vote.Note = "not trained"
	default:
		raw := t3.Predict(v)
		cfg.ThreadsSize = clampInt(int(raw+0.5), 1, 4096)
		t3Vote.Consulted = true
		t3Vote.Raw = strconv.FormatFloat(raw, 'g', -1, 64)
		t3Vote.Clamped = strconv.Itoa(cfg.ThreadsSize)
	}
	d.Trees = append(d.Trees, t3Vote)

	t4Vote := explain.TreeVote{Tree: "T4"}
	if t4 == nil {
		t4Vote.Note = "not trained"
	} else {
		raw := t4.Predict(v)
		predicted := int(raw + 0.5)
		// Move a tenth of the way toward the prediction (Section V): cache
		// effects are spread over future queries, so no sudden jumps.
		cfg.CacheSize = currentCache + (predicted-currentCache)/10
		if cfg.CacheSize < 0 {
			cfg.CacheSize = 0
		}
		t4Vote.Consulted = true
		t4Vote.Raw = strconv.FormatFloat(raw, 'g', -1, 64)
		t4Vote.Clamped = strconv.Itoa(cfg.CacheSize)
		t4Vote.Note = "delta rule: current + (predicted-current)/10"
	}
	d.Trees = append(d.Trees, t4Vote)

	d.Chosen = chosen(cfg)
	return cfg, d
}

func chosen(cfg augment.Config) explain.ChosenConfig {
	return explain.ChosenConfig{
		Strategy:    cfg.Strategy.String(),
		BatchSize:   cfg.BatchSize,
		ThreadsSize: cfg.ThreadsSize,
		CacheSize:   cfg.CacheSize,
	}
}

// TreeStrings renders the trained models for inspection (Fig. 8).
func (a *Adaptive) TreeStrings() map[string]string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := map[string]string{}
	if a.t1 != nil {
		out["T1"] = a.t1.String()
	}
	if a.t2 != nil {
		out["T2"] = a.t2.String()
	}
	if a.t3 != nil {
		out["T3"] = a.t3.String()
	}
	if a.t4 != nil {
		out["T4"] = a.t4.String()
	}
	return out
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Human is the expert-rules baseline of Fig. 12: the configuration a person
// familiar with Section VII's findings would pick.
type Human struct{}

// Name implements Optimizer.
func (Human) Name() string { return "HUMAN" }

// Choose implements Optimizer with rules distilled from the paper's own
// findings: batching dominates in distributed deployments, sequential wins
// tiny queries, outer-batch is the best all-rounder, threads track stores.
func (Human) Choose(f QueryFeatures, currentCache int) augment.Config {
	cache := 0
	if f.Distributed {
		cache = 10000
	}
	switch {
	case f.AugmentedSize <= 16 && f.NumStores <= 4 && !f.Distributed:
		return augment.Config{Strategy: augment.Sequential, CacheSize: cache}
	case f.Distributed:
		return augment.Config{Strategy: augment.Batch, BatchSize: 1000, CacheSize: cache}
	case f.AugmentedSize >= 1000:
		return augment.Config{Strategy: augment.OuterBatch, BatchSize: 100, ThreadsSize: 16, CacheSize: cache}
	default:
		return augment.Config{Strategy: augment.Outer, ThreadsSize: 8, CacheSize: cache}
	}
}

// Random is the random baseline of Fig. 12.
type Random struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewRandom creates a random optimizer with the given seed.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Optimizer.
func (*Random) Name() string { return "RANDOM" }

var (
	randomBatchSizes  = []int{1, 10, 100, 1000, 10000}
	randomThreadSizes = []int{1, 2, 4, 8, 16, 32}
	randomCacheSizes  = []int{0, 100, 1000, 10000}
)

// Choose implements Optimizer.
func (r *Random) Choose(QueryFeatures, int) augment.Config {
	r.mu.Lock()
	defer r.mu.Unlock()
	return augment.Config{
		Strategy:    augment.Strategies[r.rng.Intn(len(augment.Strategies))],
		BatchSize:   randomBatchSizes[r.rng.Intn(len(randomBatchSizes))],
		ThreadsSize: randomThreadSizes[r.rng.Intn(len(randomThreadSizes))],
		CacheSize:   randomCacheSizes[r.rng.Intn(len(randomCacheSizes))],
	}
}
