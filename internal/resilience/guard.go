package resilience

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"quepa/internal/core"
	"quepa/internal/telemetry"
)

// GuardedStore decorates a core.Store with a circuit breaker: every data
// call asks the breaker first and records its outcome after. Metadata calls
// (Name, Kind, Collections, KeyField) bypass the breaker — they touch local
// state, not the remote engine's data path.
type GuardedStore struct {
	inner   core.Store
	breaker *Breaker
}

// Guard wraps a store with a breaker.
func Guard(inner core.Store, b *Breaker) *GuardedStore {
	return &GuardedStore{inner: inner, breaker: b}
}

// Name returns the wrapped store's name.
func (g *GuardedStore) Name() string { return g.inner.Name() }

// Kind returns the wrapped store's kind.
func (g *GuardedStore) Kind() core.StoreKind { return g.inner.Kind() }

// Collections lists the wrapped store's collections.
func (g *GuardedStore) Collections() []string { return g.inner.Collections() }

// Unwrap returns the underlying store.
func (g *GuardedStore) Unwrap() core.Store { return g.inner }

// Breaker exposes the guarding breaker (stats, tests).
func (g *GuardedStore) Breaker() *Breaker { return g.breaker }

// openErr names the store in the rejection; errors.Is(err, ErrOpen) still
// matches. Allocation happens only on the already-degraded path.
func (g *GuardedStore) openErr() error {
	return fmt.Errorf("resilience: store %s: %w", g.inner.Name(), ErrOpen)
}

// markBreaker stamps the caller's trace whenever the breaker is anything but
// closed — a rejection or a probing half-open call — so tail sampling keeps
// every trace that brushed a tripped breaker. Untraced or healthy calls pay
// one atomic load.
func (g *GuardedStore) markBreaker(ctx context.Context) {
	if st := g.breaker.State(); st != Closed {
		if sp := telemetry.SpanFromContext(ctx); sp != nil {
			sp.Mark(telemetry.FlagBreaker)
			sp.SetAttr("breaker_state", st.String())
		}
	}
}

// Get retrieves one object under the breaker.
func (g *GuardedStore) Get(ctx context.Context, collection, key string) (core.Object, error) {
	g.markBreaker(ctx)
	if g.breaker.Allow() != nil {
		return core.Object{}, g.openErr()
	}
	o, err := g.inner.Get(ctx, collection, key)
	g.breaker.Record(err)
	return o, err
}

// GetBatch retrieves many objects under the breaker.
func (g *GuardedStore) GetBatch(ctx context.Context, collection string, keys []string) ([]core.Object, error) {
	g.markBreaker(ctx)
	if g.breaker.Allow() != nil {
		return nil, g.openErr()
	}
	out, err := g.inner.GetBatch(ctx, collection, keys)
	g.breaker.Record(err)
	return out, err
}

// Query executes a native query under the breaker.
func (g *GuardedStore) Query(ctx context.Context, query string) ([]core.Object, error) {
	g.markBreaker(ctx)
	if g.breaker.Allow() != nil {
		return nil, g.openErr()
	}
	out, err := g.inner.Query(ctx, query)
	g.breaker.Record(err)
	return out, err
}

// KeyField forwards to the wrapped store when it can resolve key fields, so
// guarding does not hide validator support.
func (g *GuardedStore) KeyField(ctx context.Context, collection string) (string, error) {
	type keyResolver interface {
		KeyField(context.Context, string) (string, error)
	}
	if kr, ok := g.inner.(keyResolver); ok {
		return kr.KeyField(ctx, collection)
	}
	return "", core.ErrUnsupportedQuery
}

// Set is a registry of breakers, one per store name, sharing one config. The
// server owns one and serves it through /healthz and quepa_breakers_open.
type Set struct {
	cfg BreakerConfig

	mu       sync.Mutex
	breakers map[string]*Breaker
}

// NewSet builds an empty breaker registry.
func NewSet(cfg BreakerConfig) *Set {
	return &Set{cfg: cfg.withDefaults(), breakers: map[string]*Breaker{}}
}

// Breaker returns the breaker for a store name, creating it on first use.
func (s *Set) Breaker(name string) *Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.breakers[name]
	if !ok {
		b = NewBreaker(name, s.cfg)
		s.breakers[name] = b
	}
	return b
}

// Snapshot returns every breaker's status, sorted by store name.
func (s *Set) Snapshot() []BreakerStatus {
	s.mu.Lock()
	out := make([]BreakerStatus, 0, len(s.breakers))
	for _, b := range s.breakers {
		out = append(out, b.Snapshot())
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Store < out[j].Store })
	return out
}

// AnyOpen reports whether any breaker currently rejects calls.
func (s *Set) AnyOpen() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range s.breakers {
		if b.State() == Open {
			return true
		}
	}
	return false
}

// GuardPolystore re-registers every database of the polystore behind a
// breaker-guarded wrapper drawn from the set. Stores already guarded are
// left alone, so the call is idempotent.
func GuardPolystore(poly *core.Polystore, set *Set) error {
	for _, name := range poly.Databases() {
		st, err := poly.Database(name)
		if err != nil {
			return err
		}
		if _, ok := st.(*GuardedStore); ok {
			continue
		}
		poly.Deregister(name)
		if err := poly.Register(Guard(st, set.Breaker(name))); err != nil {
			return err
		}
	}
	return nil
}
