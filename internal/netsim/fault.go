package netsim

// Fault injection: the same philosophy as the latency model — the paper's
// distributed deployment is reproduced deterministically, so here partial
// failure is too. A Chaos store decorates any core.Store with a FaultPlan:
// a seeded random error rate, hard "down" windows (flap schedules) and stall
// windows, all keyed off the store's own request sequence number so a test
// run replays bit-for-bit regardless of scheduling. The chaos CI job drives
// the whole stack (wire client retries, circuit breakers, augmenter
// degradation) through these wrappers without a real network.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"quepa/internal/core"
)

// ErrInjected marks a fault manufactured by a Chaos store. Tests and the
// degradation layer match it with errors.Is.
var ErrInjected = errors.New("netsim: injected fault")

// Window brackets request sequence numbers [From, To) — 1-based, To
// exclusive — during which a fault applies. A zero To means "forever".
type Window struct {
	From uint64 `json:"from"`
	To   uint64 `json:"to"`
}

func (w Window) contains(n uint64) bool {
	return n >= w.From && (w.To == 0 || n < w.To)
}

// FaultPlan describes the failure behaviour of one store. The zero value
// injects nothing.
type FaultPlan struct {
	// Seed drives the error-rate draws; same seed, same faults.
	Seed uint64
	// ErrorRate is the probability that any one request fails.
	ErrorRate float64
	// Down lists request windows during which every request fails — a
	// deterministic flap schedule.
	Down []Window
	// StallIn lists request windows during which requests stall for Stall
	// before being served (slow-store mode; combine with client deadlines).
	StallIn []Window
	// Stall is the added latency inside StallIn windows.
	Stall time.Duration
}

// gate charges requests against one FaultPlan: a seeded error draw, down
// windows, stall windows — keyed off an atomic request sequence so a run
// replays bit-for-bit. Chaos (per-store) and ChaosNode (per-cluster-peer)
// share it.
type gate struct {
	name     string
	plan     FaultPlan
	sleep    func(time.Duration)
	seq      atomic.Uint64
	injected atomic.Uint64
	stalled  atomic.Uint64
}

// admit charges one request: an injected error, a stall, or nothing.
func (g *gate) admit() error {
	n := g.seq.Add(1)
	for _, w := range g.plan.Down {
		if w.contains(n) {
			g.injected.Add(1)
			return fmt.Errorf("netsim: %s request %d in down window: %w", g.name, n, ErrInjected)
		}
	}
	if g.plan.ErrorRate > 0 && unit(g.plan.Seed, n) < g.plan.ErrorRate {
		g.injected.Add(1)
		return fmt.Errorf("netsim: %s request %d drawn to fail: %w", g.name, n, ErrInjected)
	}
	if g.plan.Stall > 0 {
		for _, w := range g.plan.StallIn {
			if w.contains(n) {
				g.stalled.Add(1)
				g.sleep(g.plan.Stall)
				break
			}
		}
	}
	return nil
}

// Chaos wraps a core.Store with a FaultPlan. It is safe for concurrent use;
// the request sequence number advances atomically (under concurrency the
// assignment of faults to callers follows arrival order, but the set of
// faulted sequence numbers is fixed by the plan).
type Chaos struct {
	inner core.Store
	g     gate
}

// NewChaos decorates a store with a fault plan. A nil sleep uses time.Sleep.
func NewChaos(inner core.Store, plan FaultPlan, sleep func(time.Duration)) *Chaos {
	if sleep == nil {
		sleep = time.Sleep
	}
	return &Chaos{inner: inner, g: gate{name: inner.Name(), plan: plan, sleep: sleep}}
}

// Name returns the wrapped store's name.
func (c *Chaos) Name() string { return c.inner.Name() }

// Kind returns the wrapped store's kind.
func (c *Chaos) Kind() core.StoreKind { return c.inner.Kind() }

// Collections lists the wrapped store's collections.
func (c *Chaos) Collections() []string { return c.inner.Collections() }

// Unwrap returns the underlying store.
func (c *Chaos) Unwrap() core.Store { return c.inner }

// Requests returns how many data requests reached the chaos layer.
func (c *Chaos) Requests() uint64 { return c.g.seq.Load() }

// Injected returns how many requests were failed by the plan.
func (c *Chaos) Injected() uint64 { return c.g.injected.Load() }

// Stalled returns how many requests were delayed by the plan.
func (c *Chaos) Stalled() uint64 { return c.g.stalled.Load() }

// fault charges one request against the plan: an injected error, a stall,
// or nothing.
func (c *Chaos) fault() error { return c.g.admit() }

// Get retrieves one object unless the plan faults the request.
func (c *Chaos) Get(ctx context.Context, collection, key string) (core.Object, error) {
	if err := c.fault(); err != nil {
		return core.Object{}, err
	}
	return c.inner.Get(ctx, collection, key)
}

// GetBatch retrieves many objects unless the plan faults the request.
func (c *Chaos) GetBatch(ctx context.Context, collection string, keys []string) ([]core.Object, error) {
	if err := c.fault(); err != nil {
		return nil, err
	}
	return c.inner.GetBatch(ctx, collection, keys)
}

// Query executes a native query unless the plan faults the request.
func (c *Chaos) Query(ctx context.Context, query string) ([]core.Object, error) {
	if err := c.fault(); err != nil {
		return nil, err
	}
	return c.inner.Query(ctx, query)
}

// KeyField forwards to the wrapped store (metadata is not faulted: the
// validator resolves it at query-rewrite time, not on the data path).
func (c *Chaos) KeyField(ctx context.Context, collection string) (string, error) {
	type keyResolver interface {
		KeyField(context.Context, string) (string, error)
	}
	if kr, ok := c.inner.(keyResolver); ok {
		return kr.KeyField(ctx, collection)
	}
	return "", core.ErrUnsupportedQuery
}

// RoundTrips forwards the round-trip count when the wrapped store tracks it.
func (c *Chaos) RoundTrips() uint64 {
	if ctr, ok := c.inner.(core.Counter); ok {
		return ctr.RoundTrips()
	}
	return 0
}

// unit maps (seed, n) to a uniform float64 in [0, 1) via splitmix64 — the
// same stateless construction the resilience retrier uses for jitter, so
// fault draws replay from the seed alone.
func unit(seed, n uint64) float64 {
	x := seed + n*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}
