package cluster

import (
	"context"
	"errors"
	"sync"

	"quepa/internal/core"
)

// RoutedStore presents one database of the cluster as a core.Store: keyed
// reads are routed by ring ownership — locally-owned keys hit the peer's
// own store, remote keys travel to their owning peer over the wire — while
// native-language queries run on the local replica (every peer builds the
// same deterministic workload, so the local replica is authoritative for
// query answering; only the fetch fan-out is partitioned). It is the store
// the coordinator's polystore registers in place of the plain one, so the
// whole augmenter stack — cache, coalescing, breakers, degradation — works
// unchanged on top of cluster routing.
type RoutedStore struct {
	database string
	local    core.Store
	coord    *Coordinator
}

// NewRoutedStore wraps one database's local store with ring routing.
func NewRoutedStore(database string, local core.Store, coord *Coordinator) *RoutedStore {
	return &RoutedStore{database: database, local: local, coord: coord}
}

// Name returns the database name, like the wrapped store does.
func (r *RoutedStore) Name() string { return r.local.Name() }

// Kind returns the wrapped store's kind.
func (r *RoutedStore) Kind() core.StoreKind { return r.local.Kind() }

// Collections lists the wrapped store's collections.
func (r *RoutedStore) Collections() []string { return r.local.Collections() }

// Unwrap returns the local store beneath the routing.
func (r *RoutedStore) Unwrap() core.Store { return r.local }

// KeyField forwards to the local store so the validator keeps working.
func (r *RoutedStore) KeyField(ctx context.Context, collection string) (string, error) {
	type keyResolver interface {
		KeyField(context.Context, string) (string, error)
	}
	if kr, ok := r.local.(keyResolver); ok {
		return kr.KeyField(ctx, collection)
	}
	return "", core.ErrUnsupportedQuery
}

// Get routes one key to its ring owner.
func (r *RoutedStore) Get(ctx context.Context, collection, key string) (core.Object, error) {
	ring, _ := r.coord.topo()
	owner := ring.Owner(core.NewGlobalKey(r.database, collection, key))
	if owner == r.coord.self {
		return r.local.Get(ctx, collection, key)
	}
	return r.coord.PeerGet(ctx, owner, r.database, collection, key)
}

// GetBatch splits the keys by owning shard, fans the slices out in parallel
// (local slice served by the local store) and merges the results in input
// key order, so the batch semantics of the plain store are preserved. A
// shard that fails fails the whole batch — the augmenter's degradation
// machinery decides what to drop, exactly as for a plain store error.
func (r *RoutedStore) GetBatch(ctx context.Context, collection string, keys []string) ([]core.Object, error) {
	ring, _ := r.coord.topo()
	byShard := map[int][]string{}
	for _, k := range keys {
		s := ring.Owner(core.NewGlobalKey(r.database, collection, k))
		byShard[s] = append(byShard[s], k)
	}
	if len(byShard) == 1 {
		for s, ks := range byShard {
			return r.fetchShard(ctx, s, collection, ks)
		}
	}
	var (
		mu    sync.Mutex
		wg    sync.WaitGroup
		found = make(map[string]core.Object, len(keys))
		errs  []error
	)
	for s, ks := range byShard {
		wg.Add(1)
		go func(s int, ks []string) {
			defer wg.Done()
			objs, err := r.fetchShard(ctx, s, collection, ks)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, err)
				return
			}
			for _, o := range objs {
				found[o.GK.Key] = o
			}
		}(s, ks)
	}
	wg.Wait()
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	out := make([]core.Object, 0, len(found))
	for _, k := range keys {
		if o, ok := found[k]; ok {
			out = append(out, o)
		}
	}
	return out, nil
}

func (r *RoutedStore) fetchShard(ctx context.Context, shard int, collection string, keys []string) ([]core.Object, error) {
	if shard == r.coord.self {
		return r.local.GetBatch(ctx, collection, keys)
	}
	return r.coord.PeerGetBatch(ctx, shard, r.database, collection, keys)
}

// Query runs the native-language query on the local replica.
func (r *RoutedStore) Query(ctx context.Context, query string) ([]core.Object, error) {
	return r.local.Query(ctx, query)
}

// RoundTrips forwards the local store's round-trip count when tracked.
func (r *RoutedStore) RoundTrips() uint64 {
	if ctr, ok := r.local.(core.Counter); ok {
		return ctr.RoundTrips()
	}
	return 0
}

// RoutePolystore builds a polystore whose every database is ring-routed
// through the coordinator: the polystore the cluster-mode server hands its
// augmenter.
func RoutePolystore(poly *core.Polystore, coord *Coordinator) (*core.Polystore, error) {
	routed := core.NewPolystore()
	for _, name := range poly.Databases() {
		st, err := poly.Database(name)
		if err != nil {
			return nil, err
		}
		if err := routed.Register(NewRoutedStore(name, st, coord)); err != nil {
			return nil, err
		}
	}
	return routed, nil
}
