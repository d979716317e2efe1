package explain

import "time"

// Profile is the structured EXPLAIN artifact of one query: identity, one
// trace per augmentation call, and the end-to-end totals. It marshals to the
// JSON embedded in `?explain=1` responses and served by /debug/explain.
type Profile struct {
	Route    string    `json:"route"`
	Database string    `json:"db,omitempty"`
	Query    string    `json:"query,omitempty"`
	Level    int       `json:"level"`
	Start    time.Time `json:"start"`
	WallMS   float64   `json:"wall_ms"`

	// LocalQuery is the native-language query producing the original result.
	LocalQuery *StoreFanout `json:"local_query,omitempty"`
	// Augmentations holds one trace per AugmentObjects call — one for a
	// search, one per step for an exploration session request.
	Augmentations []AugmentationTrace `json:"augmentations,omitempty"`
	// Fetches are store ops outside any augmentation (e.g. an exploration
	// step fetching its selected origin object).
	Fetches []StoreFanout `json:"fetches,omitempty"`
	// Retries lists the wire round trips that had to be retried, in order
	// (capped; Totals.WireRetries keeps the full count).
	Retries []RetryTrace `json:"retries,omitempty"`

	Totals Totals `json:"totals"`
}

// RetryTrace is one retried wire attempt: what failed and the backoff chosen
// before the next try.
type RetryTrace struct {
	Store     string  `json:"store"`
	Op        string  `json:"op"`
	Attempt   int     `json:"attempt"` // the attempt that failed, 1-based
	BackoffMS float64 `json:"backoff_ms"`
	Error     string  `json:"error,omitempty"`
}

// DegradedStore is one store whose contribution was dropped from a partial
// result: which store, why, and at which augmentation level.
type DegradedStore struct {
	Store  string `json:"store"`
	Reason string `json:"reason"`
	Level  int    `json:"level"`
}

// Decision is the optimizer's provenance for one query: the feature vector
// it saw, what each of T1–T4 predicted (and whether it was consulted at
// all), the clamping applied, the configuration that came out, and the
// explicit reason when the optimizer fell back to the default OUTER-BATCH.
//
// The type deliberately carries plain strings and numbers rather than
// augment/optimizer types: explain sits below both packages in the import
// graph, so the optimizer can build one without an import cycle.
type Decision struct {
	Optimizer      string       `json:"optimizer"`
	Trained        bool         `json:"trained"`
	FeatureNames   []string     `json:"feature_names,omitempty"`
	Features       []float64    `json:"features,omitempty"`
	Trees          []TreeVote   `json:"trees,omitempty"`
	Chosen         ChosenConfig `json:"chosen"`
	FallbackReason string       `json:"fallback_reason,omitempty"`
}

// TreeVote is one model's contribution to a Decision.
type TreeVote struct {
	Tree      string `json:"tree"`              // "T1" … "T4"
	Consulted bool   `json:"consulted"`         // false: skipped (untrained, or strategy made it moot)
	Raw       string `json:"raw,omitempty"`     // the raw prediction
	Clamped   string `json:"clamped,omitempty"` // value after clamping / the delta rule
	Note      string `json:"note,omitempty"`    // why skipped, or which rule shaped Clamped
}

// ChosenConfig is the augment.Config the optimizer returned, as plain data.
type ChosenConfig struct {
	Strategy    string `json:"strategy"`
	BatchSize   int    `json:"batch_size"`
	ThreadsSize int    `json:"threads_size"`
	CacheSize   int    `json:"cache_size"`
}

// AugmentationTrace is the record of one α^n application: the index work
// that planned it, the cache traffic and per-store fan-out that executed it.
type AugmentationTrace struct {
	Level          int    `json:"level"`
	Strategy       string `json:"strategy"`
	Origins        int    `json:"origins"`
	CandidateKeys  int    `json:"candidate_keys"`
	IndexNodes     int    `json:"index_nodes"`
	IndexEdges     int    `json:"index_edges"`
	OriginsSkipped int    `json:"origins_skipped"`
	// RcacheHits is 1 when the augmentation's whole outcome was served from
	// the stamp-validated result cache instead of recomputed.
	RcacheHits  int     `json:"rcache_hits,omitempty"`
	CacheHits   int     `json:"cache_hits"`
	CacheMisses int     `json:"cache_misses"`
	Fetched     int     `json:"fetched"`
	WallMS      float64 `json:"wall_ms"`
	Error       string  `json:"error,omitempty"`

	Stores []StoreFanout `json:"stores,omitempty"`
	// Scatter lists the per-shard fan-out of a clustered augmentation: one
	// entry per peer the coordinator's scatter-gather reach consulted.
	Scatter []ShardFanout `json:"scatter,omitempty"`
	// Degraded lists stores whose contribution this augmentation dropped
	// (store error or open breaker) instead of aborting the query.
	Degraded []DegradedStore `json:"degraded,omitempty"`
}

// ShardFanout aggregates this query's scatter traffic to one cluster peer:
// reach legs issued, origins shipped, hits answered, and legs that failed
// (breaker-open rejections included).
type ShardFanout struct {
	Shard  int     `json:"shard"`
	Peer   string  `json:"peer"`
	Calls  int     `json:"calls"`
	Keys   int     `json:"keys"`
	Hits   int     `json:"hits"`
	Errors int     `json:"errors,omitempty"`
	WallMS float64 `json:"wall_ms"`
}

// StoreFanout aggregates this query's round trips to one store for one op.
type StoreFanout struct {
	Store    string  `json:"store"`
	Op       string  `json:"op"` // "get", "getbatch" or "query"
	Calls    int     `json:"calls"`
	Keys     int     `json:"keys"`
	Objects  int     `json:"objects"`
	Errors   int     `json:"errors"`
	MaxBatch int     `json:"max_batch"`
	WallMS   float64 `json:"wall_ms"`
}

// Totals are the profile's end-to-end aggregates.
type Totals struct {
	Objects       int   `json:"objects"`
	StoreCalls    int   `json:"store_calls"`
	StoreErrors   int   `json:"store_errors"`
	CacheHits     int   `json:"cache_hits"`
	CacheMisses   int   `json:"cache_misses"`
	RankPruned    int   `json:"rank_pruned"`
	BytesSent     int64 `json:"wire_bytes_sent"`
	BytesReceived int64 `json:"wire_bytes_received"`
	WireRetries   int   `json:"wire_retries"`
	Degraded      int   `json:"degraded_stores"`
	ScatterCalls  int   `json:"scatter_calls,omitempty"`
	// RcacheHits counts the augmentation outcomes served whole from the
	// stamp-validated result cache.
	RcacheHits int `json:"rcache_hits,omitempty"`
}
