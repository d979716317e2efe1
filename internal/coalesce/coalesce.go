// Package coalesce deduplicates concurrent fetches of the same global key:
// N in-flight requests for one object cost one polystore round trip. It sits
// between the object cache and the polystore on the augmenter's fetch path —
// the cache serves repetition over time, coalescing serves repetition in
// flight, which is exactly the shape of a hot key under concurrent query
// load (every in-flight query augments the same popular object).
//
// The implementation is a small singleflight typed for core.GlobalKey. The
// call table is sharded 16 ways by core.GlobalKey.Hash, the placement the
// caches use too, so registering a flight does not convoy on one mutex; the
// follower path (join an existing flight, wait, read the result) performs no
// heap allocation.
//
// Leader cancellation does not poison followers: when a flight fails with
// the leader's context error while the follower's own context is still
// alive, the follower retries the flight as its own leader instead of
// inheriting a cancellation it never asked for.
package coalesce

import (
	"context"
	"errors"
	"sync"

	"quepa/internal/core"
	"quepa/internal/telemetry"
)

const groupShards = 16

// Fetch is the store access a Group deduplicates: it returns the object, a
// found flag (false = the store authoritatively has no such object) and an
// error. The flag mirrors the augmenter's lazy-deletion contract. Taking the
// context and key as arguments lets callers pass one long-lived function
// value instead of allocating a closure per miss.
type Fetch func(ctx context.Context, gk core.GlobalKey) (core.Object, bool, error)

// Group coalesces concurrent fetches by global key. The zero value is NOT
// ready to use; construct with NewGroup.
type Group struct {
	shards [groupShards]groupShard
}

type groupShard struct {
	mu     sync.Mutex
	flight map[core.GlobalKey]*call
}

// call is one in-flight fetch. Followers block on wg; the results are
// published before wg.Done, so a woken follower reads them without locks.
// The leader's span identity is written before the call is published, so
// followers read it lock-free to link their traces to the fetch they rode.
type call struct {
	wg        sync.WaitGroup
	obj       core.Object
	ok        bool
	err       error
	followers int

	ltid telemetry.TraceID // leader span identity (zero when the leader is untraced)
	lsid telemetry.SpanID
}

// NewGroup returns an empty coalescing group.
func NewGroup() *Group {
	g := &Group{}
	for i := range g.shards {
		g.shards[i].flight = map[core.GlobalKey]*call{}
	}
	return g
}

func (g *Group) shardFor(gk core.GlobalKey) *groupShard {
	return &g.shards[gk.Hash()%groupShards]
}

// Do executes fetch under the key's flight: the first caller (the leader)
// runs it, concurrent callers for the same key wait and share the result.
// The returned shared flag is true on the follower path — the caller got the
// answer without a store round trip of its own.
//
// A flight that failed with the leader's context error is not shared with
// followers whose own context is still live; they rerun as leaders.
func (g *Group) Do(ctx context.Context, gk core.GlobalKey, fetch Fetch) (obj core.Object, ok bool, shared bool, err error) {
	sh := g.shardFor(gk)
	for {
		sh.mu.Lock()
		if c, inFlight := sh.flight[gk]; inFlight {
			c.followers++
			sh.mu.Unlock()
			// A traced follower records the wait as a link span pointing at
			// the leader's fetch. Untraced followers (no span in ctx) skip
			// this entirely, keeping the follower join allocation-free.
			var wsp *telemetry.Span
			if telemetry.SpanFromContext(ctx) != nil {
				_, wsp = telemetry.StartSpan(ctx, "coalesce.wait")
				wsp.AddLink(c.ltid, c.lsid)
			}
			c.wg.Wait()
			wsp.End()
			if leaderAborted(c.err) && ctx.Err() == nil {
				continue // the leader was cancelled, not us: retry as leader
			}
			return c.obj, c.ok, true, c.err
		}
		c := &call{}
		if lsp := telemetry.SpanFromContext(ctx); lsp != nil {
			c.ltid, c.lsid = lsp.TraceID(), lsp.SpanID()
		}
		c.wg.Add(1)
		sh.flight[gk] = c
		sh.mu.Unlock()

		c.obj, c.ok, c.err = fetch(ctx, gk)

		// Deregister before waking the followers so a late arrival starts a
		// fresh flight instead of reading a completed (possibly stale) one.
		sh.mu.Lock()
		delete(sh.flight, gk)
		sh.mu.Unlock()
		c.wg.Done()
		return c.obj, c.ok, false, c.err
	}
}

// leaderAborted reports whether a flight failed because its leader's context
// died — the one failure mode followers must not inherit.
func leaderAborted(err error) bool {
	return err != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// Waiters reports how many followers are currently blocked on the key's
// flight, and whether a flight is in progress at all. Tests use it to build
// deterministic stampedes; stats endpoints may sample it.
func (g *Group) Waiters(gk core.GlobalKey) (followers int, inFlight bool) {
	sh := g.shardFor(gk)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c, ok := sh.flight[gk]
	if !ok {
		return 0, false
	}
	return c.followers, true
}
