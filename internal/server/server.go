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
//	GET /stats                             index/cache/telemetry/resilience/durability/build statistics
//	GET /healthz                           200 ok / 503 degraded with breaker snapshots
//	                                       (and the WAL error, in durable mode)
//	GET /metrics                           Prometheus text exposition
//	GET /debug/traces?route=…&min_ms=…     recent slow queries as JSON span trees
//	GET /debug/explain?route=…             recent EXPLAIN profiles, slowest first
//	GET /debug/pprof/…                     net/http/pprof profiles (only with Debug)
//
// Every search consults the adaptive optimizer (Section V), runs the
// configuration it chose for that request, and logs the completed run back
// into it, so the server's configuration converges as traffic flows;
// explain=1 exposes each decision's provenance.
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
// read from the peer's own replica of every store. /healthz and /stats
// grow a "cluster" section (ring version, per-peer breakers, owned ranges);
// a peer whose breaker is open shows up in answers as degraded with reason
// "peer-open" instead of failing the query.
package server

import (
	"errors"
	"fmt"
	"log"
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
	"quepa/internal/optimizer"
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
	LogLevel string        // minimum structured log level (-log-level; "" means info)
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
	// resultCacheCap is the reach/outcome entries the rcache holds.
	resultCacheCap = 4096
	// checkpointEvery bounds the log tail a crash has to replay.
	checkpointEvery = 5 * time.Minute
	// retrainEvery and maxRunLogs pace and bound the optimizer's training.
	retrainEvery = 256
	maxRunLogs   = 4096
)

// baseConfig is the configuration a search runs until the optimizer has
// trained — and, because the run log then only ever holds it, the one the
// trained trees keep choosing.
var baseConfig = augment.Config{Strategy: augment.OuterBatch, BatchSize: 64, ThreadsSize: 8, CacheSize: 4096}

// Server is one assembled QUEPA serving stack.
type Server struct {
	built   *workload.Built
	aug     *augment.Augmenter
	tracker *aindex.PathTracker
	mux     *http.ServeMux

	// rcache memoizes Reach result sets and augmentation outcomes, keyed by
	// the index's snapshot epoch so mutations invalidate for free. It is
	// shared with the cluster coordinator in sharded mode.
	rcache *rcache.Cache

	// wal is the durability manager with DataDir; nil in the default
	// in-memory mode. /stats and /healthz read it.
	wal *wal.Manager

	// Per-store circuit breakers: every database of the polystore is wrapped
	// in a resilience.GuardedStore drawing its breaker from this set, which
	// /healthz and /stats expose.
	res *resilience.Set

	// cluster is the scatter-gather coordinator when the server runs as one
	// peer of a sharded deployment; nil in single-node mode. /healthz and
	// /stats read it for the ring and per-peer breaker view.
	cluster *cluster.Coordinator

	// slo is the burn-rate engine when the server runs with latency
	// objectives; nil otherwise.
	slo *slo.Engine

	// Adaptive optimizer state: the optimizer itself, and the last observed
	// result/augmentation sizes per query signature — a query's features are
	// only known after it ran, so the previous run of the same query provides
	// the feature vector for the next decision. The map is bounded at
	// maxLastSeen signatures (first-seen order eviction, lastSeenOrder) so
	// high-cardinality query traffic cannot grow it for the life of the
	// server; an evicted signature simply decides from zero features again.
	// optMu guards the map and its order, nothing else.
	opt           *optimizer.Adaptive
	optMu         sync.Mutex
	lastSeen      map[queryKey]lastRun
	lastSeenOrder []queryKey

	mu       sync.Mutex
	sessions map[string]*augment.Exploration
	nextID   int

	// closers tear the stack down in reverse order of assembly.
	closers   []func() error
	closeOnce sync.Once
	closeErr  error
}

type lastRun struct {
	result, augmented int
}

// queryKey identifies a query for lastSeen: comparable, so looking it up
// builds no string.
type queryKey struct {
	db, q string
	level int
}

// maxLastSeen bounds the per-signature feature memory, mirroring the
// optimizer's MaxLogs bound on its run log.
const maxLastSeen = 4096

// New assembles a server: telemetry settings, the workload (generated, from
// Config.Workload, with an -index snapshot, or recovered from DataDir), the
// wire or cluster mode, per-store circuit breakers, the augmenter with its
// caches and optimizer, the SLO engine and the checkpoint loop. Every store
// is re-registered behind a circuit breaker before the augmenter captures
// it, so a store that keeps failing costs one fast rejection per query
// instead of a doomed round trip per fetch. On error, whatever New had
// already opened is closed again.
func New(cfg Config) (*Server, error) {
	s := &Server{
		rcache:   rcache.New(resultCacheCap),
		opt:      &optimizer.Adaptive{RetrainEvery: retrainEvery, MaxLogs: maxRunLogs},
		lastSeen: map[queryKey]lastRun{},
		sessions: map[string]*augment.Exploration{},
	}
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
		telemetry.DefaultTracer().SetExporter(sink)
		s.closers = append(s.closers, sink.Close)
		log.Printf("quepa-server: exporting kept traces to %s (rotate at %d bytes)", cfg.TraceLog, telemetry.DefaultTraceLogMaxBytes)
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
		log.Printf("quepa-server: loaded A' index from %s", cfg.IndexPath)
	}
	if err := s.openDurable(cfg.DataDir, cfg.Fsync); err != nil {
		return err
	}

	pool := cfg.Pool
	if pool == 0 {
		pool = wire.DefaultPoolSize
	}
	var shard *aindex.Index
	switch {
	case cfg.Wire:
		if err := s.rehomeOverWire(pool); err != nil {
			return err
		}
	case cfg.Cluster != "":
		var err error
		if shard, err = s.joinCluster(cfg.Cluster, cfg.ShardID, pool, cfg.Breaker); err != nil {
			return err
		}
	}

	s.res = resilience.NewSet(cfg.Breaker)
	if err := resilience.GuardPolystore(built.Poly, s.res); err != nil {
		return err
	}
	s.aug = augment.New(built.Poly, built.Index, baseConfig)
	s.aug.SetResultCache(s.rcache)
	s.tracker = aindex.NewPathTracker(built.Index, aindex.DefaultPromotionPolicy)
	// Component-level index surgery (ReplaceComponent) flushes the result
	// cache explicitly; ordinary mutations invalidate for free through the
	// epoch in every entry's validation key.
	built.Index.SetInvalidationHook(s.rcache.Invalidate)
	if s.cluster != nil {
		// Reach goes scatter-gather; surgery on the local shard flushes the
		// result cache the coordinator memoizes whole traversals in.
		s.aug.SetReacher(s.cluster)
		shard.SetInvalidationHook(s.rcache.Invalidate)
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
		log.Printf("quepa-server: pprof enabled under /debug/pprof/")
	}
	log.Printf("quepa-server: %d databases, index %d keys / %d p-relations",
		built.Poly.Size(), built.Index.NodeCount(), built.Index.EdgeCount())
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
	log.Printf("quepa-server: wire loopback enabled, %d multiplexed connections per store", pool)
	return nil
}

// startSLO builds and starts the burn-rate engine when any latency objective
// is set: /healthz answers 503 while one fast-burns, /stats grows an "slo"
// section, and the first trip captures pprof profiles into the data dir.
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
	log.Printf("quepa-server: burn-rate alerting on %d route(s), fast-burn threshold %.1f",
		len(objectives), engine.FastBurnThreshold())
	return nil
}

// registerMetrics exports the server's component state (cache, index,
// sessions) on the default registry as function-backed series.
func (s *Server) registerMetrics() {
	s.aug.Cache().RegisterMetrics(telemetry.Default())
	s.rcache.RegisterMetrics(telemetry.Default())
	reg := telemetry.Default()
	reg.GaugeFunc("quepa_index_keys", "global keys in the A' index",
		func() float64 { return float64(s.built.Index.NodeCount()) })
	reg.GaugeFunc("quepa_index_edges", "p-relations in the A' index",
		func() float64 { return float64(s.built.Index.EdgeCount()) })
	reg.GaugeFunc("quepa_sessions_active", "open exploration sessions",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.sessions))
		})
	reg.GaugeFunc("quepa_optimizer_runs", "run logs recorded by the adaptive optimizer",
		func() float64 { return float64(s.opt.LogCount()) })
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
				log.Printf("quepa-server: fast-burn profile capture: %v", err)
				continue
			}
			if err := p.WriteTo(f, 0); err != nil {
				log.Printf("quepa-server: fast-burn profile capture: %v", err)
			}
			f.Close()
			log.Printf("quepa-server: SLO fast burn on %s: captured %s", route, path)
		}
	}
}
