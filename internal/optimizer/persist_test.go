package optimizer

import (
	"bytes"
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

	b := NewAdaptive()
	n, err := b.LoadLogs(&buf)
	if err != nil || n != 2 {
		t.Fatalf("LoadLogs = %d, %v", n, err)
	}
	if b.LogCount() != 2 {
		t.Errorf("LogCount = %d", b.LogCount())
	}
	// The loaded optimizer trains and predicts like the original.
	if err := b.Train(); err != nil {
		t.Fatal(err)
	}
	cfg := b.Choose(QueryFeatures{ResultSize: 100, AugmentedSize: 400, Level: 1, NumStores: 7, Distributed: true}, 0)
	if cfg.Strategy != augment.OuterBatch {
		t.Errorf("loaded prediction = %v", cfg.Strategy)
	}
}

// TestLoadRespectsMaxLogs: loading a file longer than MaxLogs keeps its
// newest MaxLogs runs, and saving again writes exactly those lines, oldest
// first — also when the load wraps a ring that already held runs.
func TestLoadRespectsMaxLogs(t *testing.T) {
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
		n, err := dst.LoadLogs(strings.NewReader(file.String()))
		if err != nil || n != 25 {
			t.Fatalf("LoadLogs = %d, %v", n, err)
		}
		wantRuns(t, dst, 15, 24)
		var again bytes.Buffer
		if err := dst.SaveLogs(&again); err != nil {
			t.Fatal(err)
		}
		if want := strings.Join(lines[15:], ""); again.String() != want {
			t.Errorf("preloaded %d: save after bounded load wrote\n%s\nwant\n%s", preloaded, again.String(), want)
		}
	}
}

func TestLoadLogsErrors(t *testing.T) {
	a := NewAdaptive()
	cases := []string{
		`not json`,
		`{"strategy": "WARP-DRIVE", "durationNs": 1}`,
		`{"strategy": "BATCH", "durationNs": -5}`,
	}
	for _, c := range cases {
		if _, err := a.LoadLogs(strings.NewReader(c + "\n")); err == nil {
			t.Errorf("LoadLogs(%s) should fail", c)
		}
	}
	// Empty lines tolerated.
	n, err := a.LoadLogs(strings.NewReader("\n\n"))
	if err != nil || n != 0 {
		t.Errorf("empty input: %d, %v", n, err)
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
