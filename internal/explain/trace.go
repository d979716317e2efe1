// Package explain derives per-query execution profiles — the A' index work,
// per-store fan-out, scatter legs and cache traffic of one augmented query —
// from the request's span tree: every fact is a duration, a byte count or an
// attribute of a span the request opened (DESIGN §3.2 maps each field to its
// span). With telemetry off there are no spans and so no profile.
package explain

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"quepa/internal/telemetry"
)

// maxRetryTraces caps a profile's retry rows; the totals count past it.
const maxRetryTraces = 32

// FromTrace derives the profile of one request from its span tree: the route
// is the root's name without "http ", the wall time the root's duration.
func FromTrace(root telemetry.SpanJSON) *Profile {
	p := &Profile{Route: strings.TrimPrefix(root.Name, "http "), Start: root.Start, WallMS: root.DurationMS}
	p.Totals.Objects, p.Totals.RankPruned = num(root.Attrs, "objects"), num(root.Attrs, "rank_pruned")
	p.walk(root, nil, "")
	return p
}

// FromSpan is FromTrace over a root span that may still be open, as a
// handler holds it while it writes its response: the wall time runs to now.
// A nil span — telemetry is off — has no profile.
func FromSpan(root *telemetry.Span) *Profile {
	if root == nil {
		return nil
	}
	tree := root.JSON()
	p := FromTrace(tree)
	p.WallMS = float64(time.Since(tree.Start).Nanoseconds()) / 1e6
	return p
}

// Profiles derives the profile of every /search and /explore/step root among
// roots — newest first, as Tracer.Snapshot returns them — optionally of one
// route only, slowest first; equal wall times keep the newest first.
func Profiles(roots []telemetry.SpanJSON, route string) []*Profile {
	out := []*Profile{}
	for _, r := range roots {
		if (r.Name == "http /search" || r.Name == "http /explore/step") && (route == "" || r.Name == "http "+route) {
			out = append(out, FromTrace(r))
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].WallMS > out[j].WallMS })
	return out
}

// walk folds span s and its subtree into p. aug is the augmentation s runs
// inside (nil outside one) and db the database of the enclosing search.
func (p *Profile) walk(s telemetry.SpanJSON, aug *AugmentationTrace, db string) {
	a := s.Attrs
	if s.Name != "wire.retry" { // a retry's bytes are on its round-trip span
		p.Totals.BytesSent += s.BytesSent
		p.Totals.BytesReceived += s.BytesRecv
	}
	switch s.Name {
	case "augment.search", "augment.step":
		query, level := a["q"], num(a, "level")
		if s.Name == "augment.step" {
			query, level = "step "+a["key"], 0
		}
		if db = a["db"]; p.Query == "" { // the first writer wins: a step keeps its identity
			p.Database, p.Query, p.Level = db, query, level
		}
	case "store.query", "store.fetch", "store.fetchbatch":
		f := StoreFanout{Store: a["store"], Op: "get", Calls: 1, Keys: 1, Objects: num(a, "objects"), Errors: failed(a), WallMS: s.DurationMS}
		switch s.Name {
		case "store.query":
			f.Store, f.Op, f.Keys = db, "query", f.Objects
		case "store.fetchbatch":
			f.Op, f.Keys = "getbatch", num(a, "keys")
		}
		f.MaxBatch = f.Keys
		p.Totals.StoreCalls++
		p.Totals.StoreErrors += f.Errors
		switch {
		case s.Name == "store.query": // one per request
			p.LocalQuery = &f
		case aug != nil:
			aug.Stores = mergeFanout(aug.Stores, f)
		default:
			p.Fetches = mergeFanout(p.Fetches, f)
		}
	case "cluster.scatter":
		leg := ShardFanout{Shard: num(a, "shard"), Peer: a["peer"], Calls: 1, Keys: num(a, "keys"), Hits: num(a, "hits"), Errors: failed(a), WallMS: s.DurationMS}
		p.Totals.ScatterCalls++
		if aug != nil {
			aug.Scatter = mergeShard(aug.Scatter, leg)
		}
	case "wire.retry":
		p.Totals.WireRetries++
		if len(p.Retries) < maxRetryTraces {
			backoff, _ := strconv.ParseFloat(a["backoff_ms"], 64)
			p.Retries = append(p.Retries, RetryTrace{Store: a["store"], Op: a["op"], Attempt: num(a, "attempt"), BackoffMS: backoff, Error: a["cause"]})
		}
	case "augment.objects":
		n := func(key string) int { return num(a, key) }
		t := AugmentationTrace{Level: n("level"), Strategy: a["strategy"], Origins: n("origins"), CandidateKeys: n("keys"),
			IndexNodes: n("index_nodes"), IndexEdges: n("index_edges"), OriginsSkipped: n("origins_skipped"),
			RcacheHits: n("rcache_hits"), CacheHits: n("cache_hits"), CacheMisses: n("cache_misses"),
			Fetched: n("fetched"), WallMS: s.DurationMS, Error: a["error"]}
		for key, reason := range a {
			if store, ok := strings.CutPrefix(key, "degraded."); ok {
				t.Degraded = append(t.Degraded, DegradedStore{Store: store, Reason: reason, Level: n("degraded_level." + store)})
			}
		}
		for _, c := range s.Children {
			p.walk(c, &t, db)
		}
		p.addAugmentation(t)
		return
	}
	for _, c := range s.Children {
		p.walk(c, aug, db)
	}
}

// addAugmentation appends a finished augmentation with its rows in
// deterministic order, and folds its counts into the totals.
func (p *Profile) addAugmentation(t AugmentationTrace) {
	sort.Slice(t.Stores, func(i, j int) bool {
		x, y := t.Stores[i], t.Stores[j]
		return x.Store < y.Store || x.Store == y.Store && x.Op < y.Op
	})
	sort.Slice(t.Scatter, func(i, j int) bool { return t.Scatter[i].Shard < t.Scatter[j].Shard })
	sort.Slice(t.Degraded, func(i, j int) bool { return t.Degraded[i].Store < t.Degraded[j].Store })
	p.Augmentations = append(p.Augmentations, t)
	tot := &p.Totals
	tot.CacheHits, tot.CacheMisses, tot.RcacheHits = tot.CacheHits+t.CacheHits, tot.CacheMisses+t.CacheMisses, tot.RcacheHits+t.RcacheHits
	tot.Degraded += len(t.Degraded)
}

// mergeFanout folds one round trip into its store and op's row, in order of
// first appearance.
func mergeFanout(rows []StoreFanout, f StoreFanout) []StoreFanout {
	for i := range rows {
		if r := &rows[i]; r.Store == f.Store && r.Op == f.Op {
			r.Calls, r.Keys, r.Objects, r.Errors = r.Calls+1, r.Keys+f.Keys, r.Objects+f.Objects, r.Errors+f.Errors
			r.MaxBatch, r.WallMS = max(r.MaxBatch, f.MaxBatch), r.WallMS+f.WallMS
			return rows
		}
	}
	return append(rows, f)
}

// mergeShard folds one scatter leg into its shard's row.
func mergeShard(rows []ShardFanout, leg ShardFanout) []ShardFanout {
	for i := range rows {
		if r := &rows[i]; r.Shard == leg.Shard {
			r.Calls, r.Keys, r.Hits, r.Errors = r.Calls+1, r.Keys+leg.Keys, r.Hits+leg.Hits, r.Errors+leg.Errors
			r.WallMS += leg.WallMS
			return rows
		}
	}
	return append(rows, leg)
}

// failed counts a span's error attribute as one failed call.
func failed(attrs map[string]string) int { return min(len(attrs["error"]), 1) }

func num(attrs map[string]string, key string) int {
	n, _ := strconv.Atoi(attrs[key])
	return n
}
