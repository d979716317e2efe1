package netsim

import (
	"context"
	"errors"
	"testing"
	"time"

	"quepa/internal/connector"
	"quepa/internal/stores/kvstore"
)

func chaosFixture(plan FaultPlan, sleep func(time.Duration)) *Chaos {
	db := kvstore.New("remote")
	db.Set("c", "k1", "v1")
	db.Set("c", "k2", "v2")
	return NewChaos(connector.NewKeyValue(db), plan, sleep)
}

// TestFaultDownWindows: requests inside a down window fail with ErrInjected,
// requests outside flow untouched — a deterministic flap.
func TestFaultDownWindows(t *testing.T) {
	c := chaosFixture(FaultPlan{Down: []Window{{From: 2, To: 4}}}, func(time.Duration) {})
	ctx := context.Background()
	for i := 1; i <= 5; i++ {
		_, err := c.Get(ctx, "c", "k1")
		inWindow := i >= 2 && i < 4
		if inWindow && !errors.Is(err, ErrInjected) {
			t.Errorf("request %d: want injected fault, got %v", i, err)
		}
		if !inWindow && err != nil {
			t.Errorf("request %d: unexpected error %v", i, err)
		}
	}
	if c.Injected() != 2 || c.Requests() != 5 {
		t.Errorf("injected=%d requests=%d, want 2/5", c.Injected(), c.Requests())
	}
}

// TestFaultErrorRateDeterministic: the same seed draws the same faults; a
// different seed draws different ones; the empirical rate lands near the
// configured one.
func TestFaultErrorRateDeterministic(t *testing.T) {
	const n = 2000
	run := func(seed uint64) []bool {
		c := chaosFixture(FaultPlan{Seed: seed, ErrorRate: 0.3}, func(time.Duration) {})
		out := make([]bool, n)
		for i := range out {
			_, err := c.Get(context.Background(), "c", "k1")
			out[i] = errors.Is(err, ErrInjected)
		}
		return out
	}
	a, b := run(7), run(7)
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d: same seed diverged", i+1)
		}
		if a[i] {
			fails++
		}
	}
	if fails < n*20/100 || fails > n*40/100 {
		t.Errorf("empirical rate %d/%d far from 0.3", fails, n)
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 7 and 8 drew identical fault patterns")
	}
}

// TestFaultStallWindows: requests in stall windows are delayed through the
// injected sleeper; others are not.
func TestFaultStallWindows(t *testing.T) {
	var slept []time.Duration
	c := chaosFixture(FaultPlan{Stall: 50 * time.Millisecond, StallIn: []Window{{From: 2, To: 3}}},
		func(d time.Duration) { slept = append(slept, d) })
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := c.Get(ctx, "c", "k1"); err != nil {
			t.Fatal(err)
		}
	}
	if len(slept) != 1 || slept[0] != 50*time.Millisecond || c.Stalled() != 1 {
		t.Errorf("slept=%v stalled=%d, want one 50ms stall", slept, c.Stalled())
	}
}

// TestFaultInactivePlanIsTransparent: a zero plan never perturbs calls and
// metadata always bypasses the fault layer.
func TestFaultInactivePlanIsTransparent(t *testing.T) {
	c := chaosFixture(FaultPlan{}, func(time.Duration) { t.Error("slept with inactive plan") })
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := c.Get(ctx, "c", "k1"); err != nil {
			t.Fatal(err)
		}
	}
	if c.Name() != "remote" || len(c.Collections()) == 0 {
		t.Error("metadata not forwarded")
	}
	down := chaosFixture(FaultPlan{Down: []Window{{From: 1}}}, nil)
	if c.Injected() != 0 {
		t.Error("inactive plan injected faults")
	}
	if _, err := down.Query(ctx, "SCAN c"); !errors.Is(err, ErrInjected) {
		t.Errorf("down store served a query: %v", err)
	}
	if _, err := down.GetBatch(ctx, "c", []string{"k1"}); !errors.Is(err, ErrInjected) {
		t.Errorf("down store served a batch: %v", err)
	}
}
