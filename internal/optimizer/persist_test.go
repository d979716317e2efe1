package optimizer

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"quepa/internal/augment"
)

func TestLogPersistenceRoundTrip(t *testing.T) {
	a := NewAdaptive()
	logs := []RunLog{
		{
			Features: QueryFeatures{ResultSize: 100, AugmentedSize: 400, Level: 1, NumStores: 7, Distributed: true},
			Config:   augment.Config{Strategy: augment.OuterBatch, BatchSize: 100, ThreadsSize: 8, CacheSize: 1000},
			Duration: 42 * time.Millisecond,
		},
		{
			Features: QueryFeatures{ResultSize: 10, AugmentedSize: 40, NumStores: 4},
			Config:   augment.Config{Strategy: augment.Sequential},
			Duration: 7 * time.Millisecond,
		},
	}
	for _, r := range logs {
		a.Log(r)
	}
	var buf bytes.Buffer
	if err := a.SaveLogs(&buf); err != nil {
		t.Fatal(err)
	}

	// Each line decodes to its run, oldest first, and the strategy name
	// parses back to the strategy that ran.
	dec := json.NewDecoder(&buf)
	for i, r := range logs {
		var rec persistedLog
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		got := RunLog{
			Features: QueryFeatures{ResultSize: rec.ResultSize, AugmentedSize: rec.AugmentedSize,
				Level: rec.Level, NumStores: rec.NumStores, Distributed: rec.Distributed},
			Config:   augment.Config{BatchSize: rec.BatchSize, ThreadsSize: rec.ThreadsSize, CacheSize: rec.CacheSize},
			Duration: time.Duration(rec.DurationNS),
		}
		strategy, err := augment.ParseStrategy(rec.Strategy)
		if err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		got.Config.Strategy = strategy
		if got != r {
			t.Errorf("line %d decodes to %+v, want %+v", i+1, got, r)
		}
	}
	if dec.More() {
		t.Error("SaveLogs wrote more lines than runs logged")
	}
}

// TestSaveRespectsMaxLogs: logging more runs than MaxLogs keeps the newest
// MaxLogs, and saving writes exactly those lines, oldest first — also when
// the ring already held runs before it wrapped.
func TestSaveRespectsMaxLogs(t *testing.T) {
	src := NewAdaptive()
	for i := 0; i < 25; i++ {
		src.Log(numberedRun(i))
	}
	var file bytes.Buffer
	if err := src.SaveLogs(&file); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(file.String(), "\n")
	lines = lines[:len(lines)-1] // SplitAfter leaves an empty tail
	if len(lines) != 25 {
		t.Fatalf("saved %d lines, want 25", len(lines))
	}

	for _, preloaded := range []int{0, 3} {
		dst := NewAdaptive()
		dst.MaxLogs = 10
		for i := 0; i < preloaded; i++ {
			dst.Log(numberedRun(1000 + i))
		}
		for i := 0; i < 25; i++ {
			dst.Log(numberedRun(i))
		}
		wantRuns(t, dst, 15, 24)
		var again bytes.Buffer
		if err := dst.SaveLogs(&again); err != nil {
			t.Fatal(err)
		}
		if want := strings.Join(lines[15:], ""); again.String() != want {
			t.Errorf("preloaded %d: save after a wrapped ring wrote\n%s\nwant\n%s", preloaded, again.String(), want)
		}
	}
}

func TestSaveEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewAdaptive().SaveLogs(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("empty save wrote %d bytes", buf.Len())
	}
}
