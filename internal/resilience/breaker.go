package resilience

import (
	"context"
	"errors"
	"sync"
	"time"

	"quepa/internal/core"
	"quepa/internal/telemetry"
)

// State is a circuit breaker's position.
type State int32

// The three breaker states.
const (
	Closed   State = iota // calls flow, consecutive failures counted
	Open                  // calls rejected until the cooldown elapses
	HalfOpen              // one probe in flight decides reopen vs close
)

// String returns the conventional lowercase state name.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// BreakerConfig tunes a Breaker. The zero value selects the defaults.
type BreakerConfig struct {
	// FailureThreshold is K: consecutive failures that trip the breaker.
	FailureThreshold int
	// Cooldown is how long an open breaker rejects before letting a
	// half-open probe through.
	Cooldown time.Duration
	// Now overrides the clock (deterministic tests). nil means time.Now.
	Now func() time.Time
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = DefaultFailureThreshold
	}
	if c.Cooldown <= 0 {
		c.Cooldown = DefaultCooldown
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker is a per-store circuit breaker: closed -> open after K consecutive
// failures -> one half-open probe after the cooldown -> closed on probe
// success, reopen on probe failure. It is safe for concurrent use and
// allocation-free on the closed-state path.
type Breaker struct {
	name string
	cfg  BreakerConfig

	mu       sync.Mutex
	state    State
	fails    int       // consecutive failures while closed
	opens    uint64    // lifetime open transitions
	probes   uint64    // lifetime half-open probes admitted
	rejected uint64    // lifetime calls rejected while open
	movedAt  time.Time // last state transition
	probing  bool      // a half-open probe is in flight

	transOpen   *telemetry.Counter
	transClosed *telemetry.Counter
}

// NewBreaker builds a breaker for one named store.
func NewBreaker(name string, cfg BreakerConfig) *Breaker {
	cfg = cfg.withDefaults()
	b := &Breaker{name: name, cfg: cfg, movedAt: cfg.Now()}
	label := telemetry.L("store", name)
	b.transOpen = telemetry.NewCounter("quepa_breaker_open_total",
		"times a store's circuit breaker opened", label)
	b.transClosed = telemetry.NewCounter("quepa_breaker_close_total",
		"times a store's circuit breaker recovered (half-open probe succeeded)", label)
	return b
}

// Name returns the store the breaker guards.
func (b *Breaker) Name() string { return b.name }

// Allow asks whether a call may proceed. It returns nil (go ahead — the
// caller must Record the outcome) or ErrOpen. An open breaker whose cooldown
// has elapsed admits exactly one caller as the half-open probe.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return nil
	case Open:
		if b.cfg.Now().Sub(b.movedAt) < b.cfg.Cooldown {
			b.rejected++
			return ErrOpen
		}
		b.moveLocked(HalfOpen)
		b.probing = true
		b.probes++
		return nil
	default: // HalfOpen
		if b.probing {
			b.rejected++
			return ErrOpen
		}
		b.probing = true
		b.probes++
		return nil
	}
}

// Record feeds one allowed call's outcome back. nil and ErrNotFound count as
// success (a missing object is an answer, not an outage); context
// cancellation is ignored (the caller gave up, the store did not fail);
// everything else is a failure.
func (b *Breaker) Record(err error) {
	switch {
	case err == nil || errors.Is(err, core.ErrNotFound):
		b.RecordSuccess()
	case errors.Is(err, context.Canceled):
		b.mu.Lock()
		b.probing = false // an abandoned probe must not wedge half-open
		b.mu.Unlock()
	default:
		b.RecordFailure()
	}
}

// RecordSuccess resets the failure streak; a successful half-open probe
// closes the breaker.
func (b *Breaker) RecordSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	if b.state == HalfOpen {
		b.probing = false
		b.moveLocked(Closed)
		b.transClosed.Inc()
	}
}

// RecordFailure extends the failure streak; K consecutive failures open the
// breaker, and a failed half-open probe reopens it.
func (b *Breaker) RecordFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.fails++
		if b.fails >= b.cfg.FailureThreshold {
			b.moveLocked(Open)
			b.opens++
			b.transOpen.Inc()
		}
	case HalfOpen:
		b.probing = false
		b.moveLocked(Open)
		b.opens++
		b.transOpen.Inc()
	default:
		// Open: a straggler admitted before the trip finished late. Its
		// failure must not extend the cooldown window.
	}
}

// moveLocked transitions states and stamps the time. Callers hold b.mu.
func (b *Breaker) moveLocked(to State) {
	b.state = to
	b.fails = 0
	b.movedAt = b.cfg.Now()
}

// State returns the current state.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// BreakerStatus is one breaker's snapshot, JSON-shaped for /healthz.
type BreakerStatus struct {
	Store               string    `json:"store"`
	State               string    `json:"state"`
	ConsecutiveFailures int       `json:"consecutive_failures"`
	Opens               uint64    `json:"opens"`
	Probes              uint64    `json:"probes"`
	Rejected            uint64    `json:"rejected"`
	Since               time.Time `json:"since"`
}

// Snapshot returns the breaker's current status.
func (b *Breaker) Snapshot() BreakerStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerStatus{
		Store:               b.name,
		State:               b.state.String(),
		ConsecutiveFailures: b.fails,
		Opens:               b.opens,
		Probes:              b.probes,
		Rejected:            b.rejected,
		Since:               b.movedAt,
	}
}
