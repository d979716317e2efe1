package optimizer

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"quepa/internal/augment"
	"quepa/internal/explain"
	"quepa/internal/telemetry"
)

func fallbackCount(reason string) uint64 {
	return telemetry.Default().Counter("quepa_optimizer_fallback_total", "",
		telemetry.L("reason", reason)).Value()
}

func TestUntrainedFallbackExplained(t *testing.T) {
	a := NewAdaptive()
	before := fallbackCount("untrained")
	cfg, d := a.ChooseExplained(QueryFeatures{ResultSize: 100}, 500)
	if cfg.Strategy != augment.OuterBatch || cfg.CacheSize != 500 {
		t.Errorf("fallback config = %+v", cfg)
	}
	if d.Trained {
		t.Error("untrained decision reports trained")
	}
	if d.FallbackReason == "" || !strings.Contains(d.FallbackReason, "not trained") {
		t.Errorf("fallback reason = %q", d.FallbackReason)
	}
	if d.Chosen.Strategy != "OUTER-BATCH" {
		t.Errorf("chosen = %+v", d.Chosen)
	}
	if got := fallbackCount("untrained"); got != before+1 {
		t.Errorf("optimizer_fallback_total{untrained} = %d, want %d", got, before+1)
	}
}

// TestParseStrategyFallbackExplained forces the T1 -> ParseStrategy error
// path: a tree trained on a label that no strategy parses back from.
// Strategy(99).String() produces exactly such a label.
func TestParseStrategyFallbackExplained(t *testing.T) {
	a := NewAdaptive()
	bogus := augment.Strategy(99)
	for i := 0; i < 4; i++ {
		a.Log(RunLog{
			Features: QueryFeatures{ResultSize: 10 * (i + 1), AugmentedSize: 40, NumStores: 4},
			Config:   augment.Config{Strategy: bogus, CacheSize: 100},
			Duration: time.Millisecond,
		})
	}
	if err := a.Train(); err != nil {
		t.Fatal(err)
	}
	before := fallbackCount("parse_strategy")
	cfg, d := a.ChooseExplained(QueryFeatures{ResultSize: 10, AugmentedSize: 40, NumStores: 4}, 0)
	if cfg.Strategy != augment.OuterBatch {
		t.Errorf("strategy = %v, want forced OUTER-BATCH", cfg.Strategy)
	}
	if !d.Trained {
		t.Error("trained decision reports untrained")
	}
	if !strings.Contains(d.FallbackReason, "Strategy(99)") {
		t.Errorf("fallback reason = %q", d.FallbackReason)
	}
	if got := fallbackCount("parse_strategy"); got != before+1 {
		t.Errorf("optimizer_fallback_total{parse_strategy} = %d, want %d", got, before+1)
	}
}

func TestDecisionProvenance(t *testing.T) {
	a := NewAdaptive()
	trainOn(a)
	if err := a.Train(); err != nil {
		t.Fatal(err)
	}
	f := QueryFeatures{ResultSize: 1000, AugmentedSize: 4000, NumStores: 13, Distributed: true}
	cfg, d := a.ChooseExplained(f, 200)

	if d.Optimizer != "ADAPTIVE" || !d.Trained || d.FallbackReason != "" {
		t.Errorf("decision header = %+v", d)
	}
	wantNames := []string{"result_size", "augmented_size", "level", "num_stores", "distributed"}
	if len(d.FeatureNames) != len(wantNames) || d.FeatureNames[0] != "result_size" {
		t.Errorf("feature names = %v", d.FeatureNames)
	}
	wantVec := []float64{1000, 4000, 0, 13, 1}
	for i, v := range wantVec {
		if d.Features[i] != v {
			t.Errorf("features[%d] = %v, want %v", i, d.Features[i], v)
		}
	}
	if len(d.Trees) != 4 {
		t.Fatalf("trees = %+v", d.Trees)
	}
	t1 := d.Trees[0]
	if t1.Tree != "T1" || !t1.Consulted || t1.Clamped != cfg.Strategy.String() {
		t.Errorf("T1 vote = %+v vs strategy %v", t1, cfg.Strategy)
	}
	for _, tv := range d.Trees[1:] {
		if tv.Consulted && tv.Raw == "" {
			t.Errorf("%s consulted without raw prediction: %+v", tv.Tree, tv)
		}
		if !tv.Consulted && tv.Note == "" {
			t.Errorf("%s skipped without note: %+v", tv.Tree, tv)
		}
	}
	t4 := d.Trees[3]
	if !t4.Consulted || !strings.Contains(t4.Note, "delta rule") {
		t.Errorf("T4 vote = %+v", t4)
	}
	if d.Chosen.Strategy != cfg.Strategy.String() || d.Chosen.BatchSize != cfg.BatchSize ||
		d.Chosen.ThreadsSize != cfg.ThreadsSize || d.Chosen.CacheSize != cfg.CacheSize {
		t.Errorf("chosen %+v != config %+v", d.Chosen, cfg)
	}
}

// TestChooseParity guarantees the provenance path is observational: Choose
// and ChooseExplained return the identical configuration.
func TestChooseParity(t *testing.T) {
	a := NewAdaptive()
	trainOn(a)
	if err := a.Train(); err != nil {
		t.Fatal(err)
	}
	features := []QueryFeatures{
		{ResultSize: 10, AugmentedSize: 40, NumStores: 4},
		{ResultSize: 1000, AugmentedSize: 4000, NumStores: 13, Distributed: true},
		{ResultSize: 100, AugmentedSize: 400, Level: 1, NumStores: 7},
	}
	for _, f := range features {
		got := a.Choose(f, 300)
		want, _ := a.ChooseExplained(f, 300)
		if got != want {
			t.Errorf("Choose(%+v) = %+v, ChooseExplained = %+v", f, got, want)
		}
	}
}

// keptRuns returns the ResultSize of every run in the log, oldest first.
func keptRuns(a *Adaptive) []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []int
	for _, r := range a.chronological() {
		out = append(out, r.Features.ResultSize)
	}
	return out
}

func numberedRun(i int) RunLog {
	return RunLog{
		Features: QueryFeatures{ResultSize: i},
		Config:   augment.Config{Strategy: augment.Batch, BatchSize: 10},
		Duration: time.Millisecond,
	}
}

// wantRuns fails the test unless the log holds exactly the runs from..to.
func wantRuns(t *testing.T, a *Adaptive, from, to int) {
	t.Helper()
	got := keptRuns(a)
	if len(got) != to-from+1 {
		t.Fatalf("kept %v, want %d..%d", got, from, to)
	}
	for i, v := range got {
		if v != from+i {
			t.Fatalf("kept %v, want %d..%d in order", got, from, to)
		}
	}
}

// TestMaxLogsTrims: the newest MaxLogs runs are the ones kept, in order, and
// stay so while the ring wraps around several times over.
func TestMaxLogsTrims(t *testing.T) {
	a := NewAdaptive()
	a.MaxLogs = 10
	for i := 0; i < 35; i++ {
		a.Log(numberedRun(i))
	}
	wantRuns(t, a, 25, 34)
	for i := 35; i < 100; i++ {
		a.Log(numberedRun(i))
		wantRuns(t, a, i-9, i)
	}
}

// TestMaxLogsChangedOnLiveLog: MaxLogs is a plain field, so it can move
// while the ring is wrapped; the log must stay chronological either way.
func TestMaxLogsChangedOnLiveLog(t *testing.T) {
	a := NewAdaptive()
	a.MaxLogs = 10
	for i := 0; i < 25; i++ {
		a.Log(numberedRun(i))
	}
	a.MaxLogs = 4 // lowered: the next run trims to the newest four
	a.Log(numberedRun(25))
	wantRuns(t, a, 22, 25)
	a.Log(numberedRun(26)) // head is now mid-ring
	a.MaxLogs = 6          // raised on a wrapped ring: grows at the new end
	a.Log(numberedRun(27))
	a.Log(numberedRun(28))
	wantRuns(t, a, 23, 28)
	a.Log(numberedRun(29))
	wantRuns(t, a, 24, 29)
	a.MaxLogs = 0 // unbounded again
	a.Log(numberedRun(30))
	wantRuns(t, a, 24, 30)
}

// TestLogFullRingIsConstantWork: at a full ring Log allocates nothing and
// writes one slot in place — the backing array neither moves nor shifts.
func TestLogFullRingIsConstantWork(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	a := NewAdaptive()
	a.MaxLogs = 4096
	for i := 0; i < a.MaxLogs; i++ {
		a.Log(numberedRun(i))
	}
	base := &a.logs[0]
	next := a.MaxLogs
	if allocs := testing.AllocsPerRun(100, func() { a.Log(numberedRun(next)); next++ }); allocs != 0 {
		t.Errorf("Log at a full ring allocates %v per call, want 0", allocs)
	}
	if &a.logs[0] != base || len(a.logs) != a.MaxLogs {
		t.Fatal("the ring's backing array moved")
	}
	// AllocsPerRun made 101 calls: slots 0..100 were overwritten in place,
	// every other slot still holds the run it was first given.
	for i, r := range a.logs {
		want := i
		if i <= 100 {
			want = a.MaxLogs + i
		}
		if r.Features.ResultSize != want {
			t.Fatalf("slot %d holds run %d, want %d: the log was shifted", i, r.Features.ResultSize, want)
		}
	}
}

// TestTrainDeterministic: examples reach the learners in first-seen order,
// not map order, so retraining on the same log reproduces the same trees and
// therefore the same decisions.
func TestTrainDeterministic(t *testing.T) {
	a := NewAdaptive()
	trainOn(a)
	queries := []QueryFeatures{
		{ResultSize: 10, AugmentedSize: 40, NumStores: 4},
		{ResultSize: 700, AugmentedSize: 2000, Level: 1, NumStores: 9},
		{ResultSize: 1000, AugmentedSize: 4000, NumStores: 13, Distributed: true},
		{ResultSize: 5000, AugmentedSize: 30000, Level: 1, NumStores: 7, Distributed: true},
	}
	var firstTrees map[string]string
	var first []explain.Decision
	for round := 0; round < 5; round++ {
		if err := a.Train(); err != nil {
			t.Fatal(err)
		}
		var decisions []explain.Decision
		for _, f := range queries {
			_, d := a.ChooseExplained(f, 300)
			decisions = append(decisions, d)
		}
		if round == 0 {
			firstTrees, first = a.TreeStrings(), decisions
			continue
		}
		if trees := a.TreeStrings(); !reflect.DeepEqual(trees, firstTrees) {
			t.Fatalf("retrain %d grew different trees:\n%v\nvs\n%v", round, trees, firstTrees)
		}
		if !reflect.DeepEqual(decisions, first) {
			t.Fatalf("retrain %d decided differently:\n%+v\nvs\n%+v", round, decisions, first)
		}
	}
}

func TestRetrainCounter(t *testing.T) {
	retrains := telemetry.Default().Counter("quepa_optimizer_retrain_total", "")
	before := retrains.Value()
	a := NewAdaptive()
	trainOn(a)
	if err := a.Train(); err != nil {
		t.Fatal(err)
	}
	if got := retrains.Value(); got <= before {
		t.Errorf("optimizer_retrain_total = %d, want > %d", got, before)
	}
}
