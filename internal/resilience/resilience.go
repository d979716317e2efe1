// Package resilience makes the remote-store path of the polystore fault
// tolerant. The paper's distributed deployment (Section VII, one store per
// EC2 region) assumes every store answers every round trip; real polystores
// do not, and the BigDAWG line of work calls middleware resilience to slow
// or unavailable island engines a core polystore concern. This package
// provides the three classic building blocks, tuned for QUEPA's fan-out
// shape:
//
//   - RetryPolicy / Retrier: capped exponential backoff with deterministic
//     seeded jitter and optional per-attempt deadlines, applied by the wire
//     client to idempotent round trips.
//   - Breaker: a per-store circuit breaker (closed -> open after K
//     consecutive failures -> half-open probe -> closed), so a dead store
//     costs one fast rejection instead of a timeout per fetch.
//   - GuardedStore / Set: a core.Store decorator recording every call's
//     outcome into a breaker, plus the registry the server exposes through
//     GET /healthz and the quepa_breakers_open gauge.
//
// The cost contract mirrors internal/telemetry: on the
// no-fault hot path nothing here allocates — the retrier's first attempt and
// the breaker's closed-state bookkeeping are a mutex and a few integer ops.
// Kill-switch-style AllocsPerRun tests pin this.
package resilience

import (
	"errors"
	"time"
)

// ErrOpen is returned (possibly wrapped) when a circuit breaker rejects a
// call without consulting the store. The augmenter degrades the store's
// contribution instead of failing the query; callers distinguish the case
// with errors.Is(err, ErrOpen).
var ErrOpen = errors.New("resilience: circuit open")

// ErrPeerOpen is returned (possibly wrapped) when a cluster coordinator's
// per-peer circuit breaker rejects a scatter-gather call to a remote shard.
// It lives here — the import graph's leaf — so both the cluster coordinator
// (which raises it) and the augmenter (which classifies it as the
// "peer-open" degradation reason) can match it without importing each other.
var ErrPeerOpen = errors.New("resilience: peer circuit open")

// Defaults for RetryPolicy and BreakerConfig zero values.
const (
	DefaultMaxAttempts      = 3
	DefaultBaseBackoff      = 5 * time.Millisecond
	DefaultMaxBackoff       = 250 * time.Millisecond
	DefaultJitter           = 0.5
	DefaultFailureThreshold = 5
	DefaultCooldown         = 5 * time.Second
)
