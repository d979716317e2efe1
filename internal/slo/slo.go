// Package slo implements multi-window error-budget burn-rate alerting over
// the server's existing latency histograms (the Google SRE workbook's
// "alerting on SLOs" recipe, chapter 5).
//
// An Objective states that a fraction Target of a route's requests must
// complete within Latency. The complement, 1-Target, is the error budget.
// The Engine periodically samples the route's cumulative request histogram
// and error counter, and computes over two trailing windows (5m and 1h by
// default) the burn rate:
//
//	burn = badFraction(window) / (1 - Target)
//
// A burn rate of 1 spends the budget exactly at the rate the objective
// allows; a sustained burn of 14.4 over 1h spends ~2% of a 30-day budget in
// that hour. A route is fast-burning when BOTH windows exceed the FastBurn
// threshold — the short window makes the alert responsive, the long window
// keeps a brief spike from paging. The server turns fast burn into a 503 on
// /healthz (shed the replica before the budget is gone) and captures pprof
// profiles on the first trip, so the evidence of what was burning survives
// the incident.
//
// Good events are counted with Histogram.CountAtMost, which quantizes the
// objective down to the bucket grid — off-grid objectives undercount good
// events and therefore err toward alerting. Bad events are
// (total - good) + errors, capped at total: a slow 5xx may be counted by
// both terms, which again errs toward alerting, never away from it.
package slo

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"quepa/internal/telemetry"
)

// Defaults for Config fields left zero.
const (
	DefaultTarget      = 0.99
	DefaultFastBurn    = 14.0
	DefaultInterval    = 10 * time.Second
	DefaultShortWindow = 5 * time.Minute
	DefaultLongWindow  = time.Hour
)

// Metric names the engine reads and exports. RequestHistogram and
// ErrorCounter must be the series the HTTP layer writes (per-route label
// "route"); BurnGauge is exported by the engine per route and window.
const (
	RequestHistogram = "quepa_http_request_duration_seconds"
	ErrorCounter     = "quepa_http_errors_total"
	BurnGauge        = "quepa_slo_burn_rate"
)

// Objective is one route's latency SLO: Target of requests complete within
// Latency.
type Objective struct {
	Route   string
	Latency time.Duration
	Target  float64 // fraction in (0,1); 0 selects DefaultTarget
}

// Config assembles an Engine.
type Config struct {
	Objectives []Objective

	// FastBurn is the burn-rate threshold; a route fast-burns when both
	// windows are at or above it. 0 selects DefaultFastBurn.
	FastBurn float64
	// Interval is the sampling cadence of Run. 0 selects DefaultInterval.
	Interval time.Duration
	// ShortWindow/LongWindow are the two trailing alert windows. Zeroes
	// select 5m and 1h. Tests shrink them to keep wall-clock short.
	ShortWindow, LongWindow time.Duration
	// Registry supplies the histograms and counters to read and receives the
	// burn-rate gauges. Nil selects telemetry.Default().
	Registry *telemetry.Registry
	// OnFastBurn, when set, is invoked exactly once — on the first transition
	// of any route into fast burn for the engine's lifetime — with that
	// route. The server hooks pprof profile capture here.
	OnFastBurn func(route string)
}

// sample is one cumulative reading of a route's counters.
type sample struct {
	t     time.Time
	total uint64
	good  uint64
	errs  uint64
}

// routeState tracks one objective. Burn rates are published through atomics
// so the gauge exporters and /healthz never contend with sampling.
type routeState struct {
	obj  Objective
	hist *telemetry.Histogram
	errs *telemetry.Counter

	mu      sync.Mutex
	samples []sample

	burnShort atomic.Uint64 // math.Float64bits
	burnLong  atomic.Uint64
	fast      atomic.Bool
}

// Engine samples objectives and publishes burn rates.
type Engine struct {
	cfg     Config
	routes  []*routeState
	tripped atomic.Bool
	started atomic.Bool
	stop    chan struct{}
	done    chan struct{}
}

// New builds an engine, resolves the per-route metric handles, and registers
// the quepa_slo_burn_rate gauges. Call Start (or drive Sample directly in
// tests) afterwards.
func New(cfg Config) (*Engine, error) {
	if cfg.FastBurn <= 0 {
		cfg.FastBurn = DefaultFastBurn
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.ShortWindow <= 0 {
		cfg.ShortWindow = DefaultShortWindow
	}
	if cfg.LongWindow <= 0 {
		cfg.LongWindow = DefaultLongWindow
	}
	if cfg.ShortWindow >= cfg.LongWindow {
		return nil, fmt.Errorf("slo: short window %v must be below long window %v", cfg.ShortWindow, cfg.LongWindow)
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.Default()
	}
	if len(cfg.Objectives) == 0 {
		return nil, fmt.Errorf("slo: no objectives")
	}
	e := &Engine{cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
	for _, obj := range cfg.Objectives {
		if obj.Target == 0 {
			obj.Target = DefaultTarget
		}
		if obj.Target <= 0 || obj.Target >= 1 {
			return nil, fmt.Errorf("slo: route %s: target %v outside (0,1)", obj.Route, obj.Target)
		}
		if obj.Latency <= 0 {
			return nil, fmt.Errorf("slo: route %s: non-positive latency objective", obj.Route)
		}
		rs := &routeState{
			obj: obj,
			hist: cfg.Registry.Histogram(RequestHistogram,
				"latency of HTTP requests by route", nil, telemetry.L("route", obj.Route)),
			errs: cfg.Registry.Counter(ErrorCounter,
				"HTTP 5xx responses by route", telemetry.L("route", obj.Route)),
		}
		e.routes = append(e.routes, rs)
		for _, w := range []struct {
			label string
			bits  *atomic.Uint64
		}{
			{windowLabel(cfg.ShortWindow), &rs.burnShort},
			{windowLabel(cfg.LongWindow), &rs.burnLong},
		} {
			bits := w.bits
			cfg.Registry.GaugeFunc(BurnGauge,
				"error-budget burn rate by route and trailing window",
				func() float64 { return math.Float64frombits(bits.Load()) },
				telemetry.L("route", obj.Route), telemetry.L("window", w.label))
		}
	}
	return e, nil
}

// windowLabel renders a window compactly ("5m", "1h") for gauge labels.
func windowLabel(d time.Duration) string {
	switch {
	case d >= time.Hour && d%time.Hour == 0:
		return fmt.Sprintf("%dh", d/time.Hour)
	case d >= time.Minute && d%time.Minute == 0:
		return fmt.Sprintf("%dm", d/time.Minute)
	case d >= time.Second && d%time.Second == 0:
		return fmt.Sprintf("%ds", d/time.Second)
	}
	return d.String()
}

// Start launches the sampling loop. Stop halts it. Start is one-shot; a
// second call is a no-op.
func (e *Engine) Start() {
	if !e.started.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(e.done)
		t := time.NewTicker(e.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-e.stop:
				return
			case now := <-t.C:
				e.Sample(now)
			}
		}
	}()
}

// Stop halts the sampling loop started by Start and waits for it to exit.
// Without a prior Start it is a no-op.
func (e *Engine) Stop() {
	select {
	case <-e.stop:
	default:
		close(e.stop)
	}
	if e.started.Load() {
		<-e.done
	}
}

// Sample takes one cumulative reading per route at the given time and
// recomputes both windows. Exposed so tests drive deterministic clocks.
func (e *Engine) Sample(now time.Time) {
	for _, rs := range e.routes {
		e.sampleRoute(rs, now)
	}
}

func (e *Engine) sampleRoute(rs *routeState, now time.Time) {
	cur := sample{
		t:     now,
		total: rs.hist.Count(),
		good:  rs.hist.CountAtMost(rs.obj.Latency),
		errs:  rs.errs.Value(),
	}
	rs.mu.Lock()
	rs.samples = append(rs.samples, cur)
	// Trim history older than the long window, always keeping one sample at
	// or beyond the boundary so the long-window delta stays full-width.
	cutoff := now.Add(-e.cfg.LongWindow)
	trim := 0
	for trim < len(rs.samples)-1 && !rs.samples[trim+1].t.After(cutoff) {
		trim++
	}
	if trim > 0 {
		rs.samples = append(rs.samples[:0], rs.samples[trim:]...)
	}
	short := rs.burnLocked(now, e.cfg.ShortWindow)
	long := rs.burnLocked(now, e.cfg.LongWindow)
	rs.mu.Unlock()

	rs.burnShort.Store(math.Float64bits(short))
	rs.burnLong.Store(math.Float64bits(long))
	fast := short >= e.cfg.FastBurn && long >= e.cfg.FastBurn
	was := rs.fast.Swap(fast)
	if fast && !was {
		telemetry.Log(telemetry.LogWarn, "slo fast burn",
			telemetry.F("route", rs.obj.Route),
			telemetry.F("burn_short", short),
			telemetry.F("burn_long", long))
		if e.tripped.CompareAndSwap(false, true) && e.cfg.OnFastBurn != nil {
			e.cfg.OnFastBurn(rs.obj.Route)
		}
	}
}

// burnLocked computes the burn rate over the trailing window ending at now.
// The reference sample is the newest one at least window old; with less
// history than the window, the oldest sample stands in, so early burn rates
// reflect the shorter span actually observed (erring toward alerting).
func (rs *routeState) burnLocked(now time.Time, window time.Duration) float64 {
	if len(rs.samples) < 2 {
		return 0
	}
	newest := rs.samples[len(rs.samples)-1]
	boundary := now.Add(-window)
	ref := rs.samples[0]
	for _, s := range rs.samples[1 : len(rs.samples)-1] {
		if s.t.After(boundary) {
			break
		}
		ref = s
	}
	total := newest.total - ref.total
	if total == 0 {
		return 0
	}
	bad := (total - (newest.good - ref.good)) + (newest.errs - ref.errs)
	if bad > total {
		bad = total
	}
	budget := 1 - rs.obj.Target
	return (float64(bad) / float64(total)) / budget
}

// FastBurning lists the routes currently in fast burn.
func (e *Engine) FastBurning() []string {
	var out []string
	for _, rs := range e.routes {
		if rs.fast.Load() {
			out = append(out, rs.obj.Route)
		}
	}
	return out
}

// Tripped reports whether any route has ever entered fast burn.
func (e *Engine) Tripped() bool { return e.tripped.Load() }
