// Package server is the QUEPA serving stack behind cmd/quepa-server: augmented
// search and augmented exploration over a REST interface (the User Interface
// component of the paper's Fig. 2), backed by a generated Polyphony polystore.
// New assembles the whole stack from one Config, exactly as the binary runs
// it; the command parses its flags into that Config and serves Handler.
//
// Endpoints:
//
//	GET /databases                         list the polystore's databases
//	GET /search?db=…&q=…&level=N           augmented search (level defaults to 0);
//	                                       optional minp=0.8 / topk=10 trim the ranking,
//	                                       explain=1 attaches an EXPLAIN profile;
//	                                       store failures yield a partial answer
//	                                       with a "degraded" section, not a 500
//	GET /object?key=D.C.K                  fetch one object with its p-relations
//	POST /explore?db=…&q=…                 start an exploration session -> {session}
//	POST /explore/step?session=…&key=…     expand one object -> ranked links;
//	                                       explain=1 attaches an EXPLAIN profile
//	POST /explore/finish?session=…         end the session (may promote the path)
//	GET /stats                             the augmenter configuration and the build stamp
//	GET /healthz                           200 ok / 503 degraded with breaker snapshots
//	                                       (and the WAL error, in durable mode)
//	GET /metrics                           Prometheus text exposition: every number
//	                                       the server keeps (docs/SIGNALS.md)
//	GET /debug/traces?route=…&min_ms=…     recent slow queries as JSON span trees
//	GET /debug/explain?route=…             recent EXPLAIN profiles, slowest first
//	GET /debug/pprof/…                     net/http/pprof profiles (only with Debug)
//
// Every search and every exploration step runs one configuration,
// OUTER-BATCH with 64-key batches and 8 threads. The adaptive optimizer of
// Section V (internal/optimizer) learns from runs of different
// configurations, which a server that runs one never produces, so the
// server has no decision step (DESIGN.md §3.13).
//
// With DataDir the server runs durably: index mutations (removals from
// degraded scans, path promotions) are journaled to a write-ahead log, the
// index is checkpointed periodically, and startup recovers the last committed
// state instead of rebuilding from the generator. Close flushes a final
// checkpoint.
//
// With Cluster (host:port,...) and ShardID the server runs as one peer of a
// sharded deployment: a consistent-hash ring partitions A' ownership across
// the listed peers, each peer serves its shard over the wire protocol, and
// reachability becomes scatter-gather across the owners while objects are
// read from the peer's own replica of every store. /healthz grows a
// "cluster" section (ring version, per-peer breakers, owned range counts);
// a peer whose breaker is open shows up in answers as degraded with reason
// "peer-open" instead of failing the query.
package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	rpprof "runtime/pprof"
	"sync"
	"time"

	"quepa/internal/aindex"
	"quepa/internal/augment"
	"quepa/internal/cluster"
	"quepa/internal/core"
	"quepa/internal/rcache"
	"quepa/internal/resilience"
	"quepa/internal/slo"
	"quepa/internal/telemetry"
	"quepa/internal/wal"
	"quepa/internal/wire"
	"quepa/internal/workload"
)

// Config is everything New needs. Each field is one quepa-server flag,
// except the two test seams at the end; zero values select the flag
// defaults.
type Config struct {
	Scale     float64 // workload scale factor (-scale; 0 means 1)
	Replicas  int     // replication rounds: 0 -> 4 databases, 3 -> 13 (-replicas)
	IndexPath string  // load A' from this binary snapshot instead of the generated one (-index)

	DataDir string // durable mode: WAL + checkpoints in this directory (-data-dir)
	Fsync   string // WAL fsync policy: always, interval, off (-fsync; "" means interval)

	Wire    bool   // serve every store over a loopback wire server and fetch through wire clients (-wire)
	Pool    int    // multiplexed connections per wire client (-pool; 0 means wire.DefaultPoolSize)
	Cluster string // comma-separated wire addresses of every peer, by shard id (-cluster)
	ShardID int    // this peer's index in Cluster (-shard-id)

	Debug    bool          // expose net/http/pprof under /debug/pprof/ (-debug)
	LogLevel string        // minimum level of the JSON log lines (-log-level; "" means info)
	Slow     time.Duration // slow-query threshold of /debug/traces (-slow; 0 means telemetry.DefaultSlowThreshold)
	TraceLog string        // append kept traces as JSON lines to this file (-trace-log)

	SLOSearchP99 time.Duration // latency objective for /search (-slo-search-p99; 0 disables)
	SLOStepP99   time.Duration // latency objective for /explore/step (-slo-step-p99; 0 disables)
	SLOTarget    float64       // fraction of requests that must meet the objectives (-slo-target; 0 means slo.DefaultTarget)

	// Workload, when set, is served instead of a workload generated from
	// Scale and Replicas. New takes it over: its Poly and Index become the
	// server's (re-homed, guarded or recovered as the modes require). Tests
	// set it to inject faulty stores and to keep the data small.
	Workload *workload.Built
	// Breaker configures the per-store and per-peer circuit breakers; the
	// zero value selects the resilience package defaults. Tests set it to
	// drive the cooldown from a fake clock.
	Breaker resilience.BreakerConfig
}

// Fixed wiring: no deployment needs another value (DESIGN.md §3.13).
const (
	// resultCacheCap is the outcome entries the rcache holds.
	resultCacheCap = 4096
	// checkpointEvery bounds the log tail a crash has to replay.
	checkpointEvery = 5 * time.Minute
)

// baseConfig is the one configuration every search and exploration runs:
// OUTER-BATCH, the paper's best augmenter (Fig. 11), without its object
// cache. The stores are in-process and a read returns a view of what they
// hold, so a hit saves almost nothing while every probe and insert costs a
// shard lock and a hash (DESIGN §3.18).
var baseConfig = augment.Config{Strategy: augment.OuterBatch, BatchSize: 64, ThreadsSize: 8, CacheSize: 0}

// Server is one assembled QUEPA serving stack.
type Server struct {
	built   *workload.Built
	aug     *augment.Augmenter
	tracker *aindex.PathTracker
	mux     *http.ServeMux

	// rcache memoizes single-origin augmentation outcomes. Each entry
	// carries its origin's component stamp (aindex.Index.Stamp), so a
	// mutation invalidates only the island it touched. Nil on a cluster
	// peer, whose augmenter scatters its reaches and memoizes nothing.
	rcache *rcache.Cache

	// wal is the durability manager with DataDir; nil in the default
	// in-memory mode. /healthz and its quepa_wal_* gauges read it.
	wal *wal.Manager

	// Per-store circuit breakers: every database of the polystore is wrapped
	// in a resilience.GuardedStore drawing its breaker from this set, which
	// /healthz and quepa_breakers_open expose.
	res *resilience.Set

	// cluster is the scatter-gather coordinator when the server runs as one
	// peer of a sharded deployment; nil in single-node mode. /healthz reads
	// it for the ring and per-peer breaker view.
	cluster *cluster.Coordinator

	// slo is the burn-rate engine when the server runs with latency
	// objectives; nil otherwise.
	slo *slo.Engine

	// traceLog is the -trace-log sink installed on the process-wide
	// tracer; nil without one. Close detaches it before closing it.
	traceLog *telemetry.TraceLog

	mu       sync.Mutex
	sessions map[string]*session
	nextID   int

	// closers tear the stack down in reverse order of assembly.
	closers   []func() error
	closeOnce sync.Once
	closeErr  error
}

// session is one open exploration. Its mutex serialises the requests that
// name it, so a step's response carries that step's own degraded list and a
// finish never interleaves with a step.
type session struct {
	mu sync.Mutex
	e  *augment.Exploration
}

// New assembles a server: telemetry settings, the workload (generated, from
// Config.Workload, with an -index snapshot, or recovered from DataDir), the
// wire or cluster mode, per-store circuit breakers, the augmenter with its
// caches, the SLO engine and the checkpoint loop. Every store is
// re-registered behind a circuit breaker before the augmenter captures it,
// so a store that keeps failing costs one fast rejection per query instead
// of a doomed round trip per fetch. On error, whatever New had already
// opened is closed again.
func New(cfg Config) (*Server, error) {
	s := &Server{sessions: map[string]*session{}}
	if err := s.assemble(cfg); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

func (s *Server) assemble(cfg Config) error {
	if cfg.Wire && cfg.Cluster != "" {
		return errors.New("quepa-server: -wire and -cluster are mutually exclusive")
	}
	if err := setupTelemetry(cfg); err != nil {
		return err
	}
	if cfg.TraceLog != "" {
		sink, err := telemetry.NewTraceLog(cfg.TraceLog, 0)
		if err != nil {
			return err
		}
		tracer := telemetry.DefaultTracer()
		tracer.SetExporter(sink)
		s.traceLog = sink
		s.closers = append(s.closers, func() error {
			tracer.SetExporter(nil) // later kept traces must not count as dropped here
			return sink.Close()
		})
		telemetry.Log(telemetry.LogInfo, "exporting kept traces",
			telemetry.F("path", cfg.TraceLog), telemetry.F("rotate_bytes", telemetry.DefaultTraceLogMaxBytes))
	}

	built := cfg.Workload
	if built == nil {
		scale := cfg.Scale
		if scale == 0 {
			scale = 1
		}
		spec := workload.DefaultSpec().Scale(scale)
		spec.ReplicaRounds = cfg.Replicas
		var err error
		if built, err = workload.Build(spec, workload.Colocated()); err != nil {
			return err
		}
	}
	s.built = built
	if cfg.IndexPath != "" {
		index, err := readIndex(cfg.IndexPath)
		if err != nil {
			return err
		}
		built.Index = index
		telemetry.Log(telemetry.LogInfo, "loaded A' index", telemetry.F("path", cfg.IndexPath))
	}
	if err := s.openDurable(cfg.DataDir, cfg.Fsync); err != nil {
		return err
	}

	pool := cfg.Pool
	if pool == 0 {
		pool = wire.DefaultPoolSize
	}
	switch {
	case cfg.Wire:
		if err := s.rehomeOverWire(pool); err != nil {
			return err
		}
	case cfg.Cluster != "":
		if err := s.joinCluster(cfg.Cluster, cfg.ShardID, pool, cfg.Breaker); err != nil {
			return err
		}
	}

	s.res = resilience.NewSet(cfg.Breaker)
	if err := resilience.GuardPolystore(built.Poly, s.res); err != nil {
		return err
	}
	s.aug = augment.New(built.Poly, built.Index, baseConfig)
	s.tracker = aindex.NewPathTracker(built.Index, aindex.DefaultPromotionPolicy)
	if s.cluster != nil {
		s.aug.SetReacher(s.cluster) // reach goes scatter-gather
	} else {
		s.rcache = rcache.New(resultCacheCap)
		s.aug.SetResultCache(s.rcache)
	}
	s.registerMetrics()

	if err := s.startSLO(cfg); err != nil {
		return err
	}
	s.closers = append(s.closers, startCheckpointLoop(s.wal, checkpointEvery))

	s.mux = s.routes()
	if cfg.Debug {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		telemetry.Log(telemetry.LogInfo, "pprof enabled", telemetry.F("path", "/debug/pprof/"))
	}
	telemetry.Log(telemetry.LogInfo, "serving",
		telemetry.F("databases", built.Poly.Size()),
		telemetry.F("index_keys", built.Index.NodeCount()),
		telemetry.F("index_edges", built.Index.EdgeCount()))
	return nil
}

// Handler is the server's HTTP surface: every route of the package comment,
// instrumented.
func (s *Server) Handler() http.Handler { return s.mux }

// Close tears the stack down in reverse order of assembly: the checkpoint
// loop and the SLO sampler stop, the cluster peer and wire loopback close,
// and the WAL flushes its final segment and shutdown checkpoint — so call it
// only once no request can mutate the index any more. It returns the first
// error; later calls return the same.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		for i := len(s.closers) - 1; i >= 0; i-- {
			if err := s.closers[i](); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}

// setupTelemetry applies the process-wide logging and tracing settings.
func setupTelemetry(cfg Config) error {
	if cfg.LogLevel != "" {
		lvl, err := telemetry.ParseLogLevel(cfg.LogLevel)
		if err != nil {
			return err
		}
		telemetry.SetLogLevel(lvl)
	}
	slow := cfg.Slow
	if slow == 0 {
		slow = telemetry.DefaultSlowThreshold
	}
	tracer := telemetry.DefaultTracer()
	tracer.SetSlowThreshold(slow)
	tracer.SetSampleRate(telemetry.DefaultSampleRate)
	return nil
}

// readIndex loads an A' binary snapshot, as quepa-collect -out writes it.
func readIndex(path string) (*aindex.Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	index, _, err := aindex.ReadSnapshot(f)
	if err != nil {
		return nil, fmt.Errorf("quepa-server: -index %s: %w", path, err)
	}
	return index, nil
}

// rehomeOverWire re-homes every store behind a loopback TCP wire server and
// dials it back with a multiplexed client, so the augmenter pays the real
// remote fetch path (frames, demux, retries) instead of in-process calls.
func (s *Server) rehomeOverWire(pool int) error {
	poly := core.NewPolystore()
	for _, name := range s.built.Poly.Databases() {
		st, err := s.built.Poly.Database(name)
		if err != nil {
			return err
		}
		srv, err := wire.Serve(st, "127.0.0.1:0")
		if err != nil {
			return err
		}
		s.closers = append(s.closers, srv.Close)
		cli, err := wire.DialConfig(srv.Addr(), wire.ClientConfig{
			Retry: resilience.DefaultRetryPolicy(), PoolSize: pool,
		})
		if err != nil {
			return err
		}
		s.closers = append(s.closers, func() error { cli.Close(); return nil })
		if err := poly.Register(cli); err != nil {
			return err
		}
	}
	s.built.Poly = poly
	telemetry.Log(telemetry.LogInfo, "wire loopback enabled", telemetry.F("conns_per_store", pool))
	return nil
}

// startSLO builds and starts the burn-rate engine when any latency objective
// is set: /healthz answers 503 while one fast-burns, /metrics carries the
// burn rates, and the first trip captures pprof profiles into the data dir.
func (s *Server) startSLO(cfg Config) error {
	var objectives []slo.Objective
	if cfg.SLOSearchP99 > 0 {
		objectives = append(objectives, slo.Objective{Route: "/search", Latency: cfg.SLOSearchP99, Target: cfg.SLOTarget})
	}
	if cfg.SLOStepP99 > 0 {
		objectives = append(objectives, slo.Objective{Route: "/explore/step", Latency: cfg.SLOStepP99, Target: cfg.SLOTarget})
	}
	if len(objectives) == 0 {
		return nil
	}
	engine, err := slo.New(slo.Config{
		Objectives: objectives,
		OnFastBurn: captureFastBurnProfiles(cfg.DataDir),
	})
	if err != nil {
		return err
	}
	s.slo = engine
	engine.Start()
	s.closers = append(s.closers, func() error { engine.Stop(); return nil })
	telemetry.Log(telemetry.LogInfo, "burn-rate alerting",
		telemetry.F("routes", len(objectives)), telemetry.F("fast_burn", slo.DefaultFastBurn))
	return nil
}

// registerMetrics exports the server's component state (result cache,
// index, sessions) on the default registry as function-backed series.
func (s *Server) registerMetrics() {
	reg := telemetry.Default()
	if s.rcache != nil {
		s.rcache.RegisterMetrics(reg)
	}
	reg.GaugeFunc("quepa_index_keys", "global keys in the A' index",
		func() float64 { return float64(s.built.Index.NodeCount()) })
	reg.GaugeFunc("quepa_index_edges", "p-relations in the A' index",
		func() float64 { return float64(s.built.Index.EdgeCount()) })
	reg.GaugeFunc("quepa_aindex_epoch", "mutation epoch of the A' index",
		func() float64 { return float64(s.built.Index.Epoch()) })
	// The units of result-cache invalidation: in one giant component every
	// promotion would invalidate every cached result.
	reg.GaugeFunc("quepa_aindex_components", "connected components of the A' index (never split by lazy deletion)",
		func() float64 { n, _ := s.built.Index.Components(); return float64(n) })
	reg.GaugeFunc("quepa_aindex_component_max_keys", "global keys in the largest connected component of the A' index",
		func() float64 { _, m := s.built.Index.Components(); return float64(m) })
	reg.GaugeFunc("quepa_sessions_active", "open exploration sessions",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.sessions))
		})
	reg.GaugeFunc("quepa_breakers_open", "stores whose circuit breaker is currently open",
		func() float64 {
			var open float64
			for _, b := range s.res.Snapshot() {
				if b.State == resilience.Open.String() {
					open++
				}
			}
			return open
		})
}

// captureFastBurnProfiles returns the SLO engine's first-trip hook: it dumps
// goroutine and heap pprof profiles into dir (the data dir in durable mode,
// the working directory otherwise), so the evidence of what was burning the
// budget survives the incident. Capture failures are logged, never fatal —
// the alert itself must not depend on the disk.
func captureFastBurnProfiles(dir string) func(route string) {
	if dir == "" {
		dir = "."
	}
	return func(route string) {
		stamp := time.Now().UTC().Format("20060102T150405Z")
		for _, profile := range []string{"goroutine", "heap"} {
			p := rpprof.Lookup(profile)
			if p == nil {
				continue
			}
			path := filepath.Join(dir, fmt.Sprintf("fastburn-%s-%s.pprof", stamp, profile))
			f, err := os.Create(path)
			if err != nil {
				telemetry.Log(telemetry.LogError, "fast-burn profile capture", telemetry.F("err", err.Error()))
				continue
			}
			if err := p.WriteTo(f, 0); err != nil {
				telemetry.Log(telemetry.LogError, "fast-burn profile capture", telemetry.F("err", err.Error()))
			}
			f.Close()
			telemetry.Log(telemetry.LogWarn, "SLO fast burn: profile captured",
				telemetry.F("route", route), telemetry.F("path", path))
		}
	}
}
