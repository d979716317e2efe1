// Command quepa-server exposes augmented search and augmented exploration
// over a REST interface (the User Interface component of the paper's Fig. 2),
// backed by a generated Polyphony polystore.
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
//	GET /debug/pprof/…                     net/http/pprof profiles (only with -debug)
//
// Every search consults the adaptive optimizer (Section V) and logs the
// completed run back into it, so the server's configuration converges as
// traffic flows; explain=1 exposes each decision's provenance.
//
// With -data-dir the server runs durably: index mutations (removals from
// degraded scans, path promotions) are journaled to a write-ahead log, the
// index is checkpointed periodically, and startup recovers the last committed
// state instead of rebuilding from the generator. SIGINT/SIGTERM drains
// in-flight requests and flushes a final checkpoint before exiting.
//
// With -cluster host:port,... -shard-id N the server runs as one peer of a
// sharded deployment: a consistent-hash ring partitions A' ownership across
// the listed peers, each peer serves its shard over the wire protocol, and
// augmentation becomes scatter-gather across the owners. /healthz and /stats
// grow a "cluster" section (ring version, per-peer breakers, owned ranges);
// a peer whose breaker is open shows up in answers as degraded with reason
// "peer-open" instead of failing the query.
//
// Example:
//
//	quepa-server -addr :8080 -replicas 1 &
//	curl 'localhost:8080/search?db=transactions&q=SELECT+*+FROM+inventory+WHERE+seq+<+3&explain=1'
//	curl 'localhost:8080/debug/explain'
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	rdebug "runtime/debug"
	rpprof "runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"quepa/internal/aindex"
	"quepa/internal/augment"
	"quepa/internal/cluster"
	"quepa/internal/core"
	"quepa/internal/explain"
	"quepa/internal/optimizer"
	"quepa/internal/rcache"
	"quepa/internal/resilience"
	"quepa/internal/slo"
	"quepa/internal/telemetry"
	"quepa/internal/wal"
	"quepa/internal/wire"
	"quepa/internal/workload"
)

type server struct {
	built   *workload.Built
	aug     *augment.Augmenter
	tracker *aindex.PathTracker

	// rcache memoizes Reach result sets and augmentation outcomes, keyed by
	// the index's snapshot epoch so mutations invalidate for free. It is
	// shared with the cluster coordinator in sharded mode. -rcache-cap sizes
	// it; 0 disables.
	rcache *rcache.Cache

	// wal is the durability manager when the server runs with -data-dir;
	// nil in the default in-memory mode. /stats and /healthz read it.
	wal *wal.Manager

	// Per-store circuit breakers: every database of the polystore is wrapped
	// in a resilience.GuardedStore drawing its breaker from this set, which
	// /healthz and /stats expose.
	res *resilience.Set

	// cluster is the scatter-gather coordinator when the server runs as one
	// peer of a sharded deployment (-cluster); nil in single-node mode.
	// /healthz and /stats read it for the ring and per-peer breaker view.
	cluster *cluster.Coordinator

	// slo is the burn-rate engine when the server runs with latency
	// objectives (-slo-search-p99 / -slo-step-p99); nil otherwise. Installed
	// after construction via installSLO so newServer's signature — shared
	// with the tests — stays put.
	slo *slo.Engine

	// Adaptive optimizer state: the optimizer itself, and the last observed
	// result/augmentation sizes per query signature — a query's features are
	// only known after it ran, so the previous run of the same query provides
	// the feature vector for the next decision. The map is bounded at
	// maxLastSeen signatures (first-seen order eviction, lastSeenOrder) so
	// high-cardinality query traffic cannot grow it for the life of the
	// server; an evicted signature simply decides from zero features again.
	opt           *optimizer.Adaptive
	optMu         sync.Mutex
	lastSeen      map[queryKey]lastRun
	lastSeenOrder []queryKey

	// EXPLAIN profile ring plus the 1-in-K background sampler.
	explainBuf   *explain.Buffer
	explainEvery int
	reqSeq       atomic.Uint64

	mu       sync.Mutex
	sessions map[string]*augment.Exploration
	nextID   int
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

// defaultRcacheCap is the default -rcache-cap: reach/outcome results the
// result cache holds before LRU eviction.
const defaultRcacheCap = 4096

// newServer assembles a server around a built workload — shared between main
// and the tests so both run the identical wiring. Every store of the
// polystore is re-registered behind a circuit breaker before the augmenter
// captures it, so a store that keeps failing costs one fast rejection per
// query instead of a doomed round trip per fetch.
func newServer(built *workload.Built, cfg augment.Config, explainCap, explainEvery int, bcfg resilience.BreakerConfig) (*server, error) {
	res := resilience.NewSet(bcfg)
	if err := resilience.GuardPolystore(built.Poly, res); err != nil {
		return nil, err
	}
	s := &server{
		built:        built,
		aug:          augment.New(built.Poly, built.Index, cfg),
		rcache:       rcache.New(defaultRcacheCap),
		tracker:      aindex.NewPathTracker(built.Index, aindex.DefaultPromotionPolicy),
		res:          res,
		opt:          optimizer.NewAdaptive(),
		lastSeen:     map[queryKey]lastRun{},
		explainBuf:   explain.NewBuffer(explainCap),
		explainEvery: explainEvery,
		sessions:     map[string]*augment.Exploration{},
	}
	s.opt.RetrainEvery = 256
	s.opt.MaxLogs = 4096
	s.aug.SetResultCache(s.rcache)
	// Component-level index surgery (ReplaceComponent) flushes the result
	// cache explicitly; ordinary mutations invalidate for free through the
	// epoch in every entry's validation key.
	built.Index.SetInvalidationHook(s.rcache.Invalidate)
	s.registerMetrics()
	return s, nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	replicas := flag.Int("replicas", 0, "replication rounds (0 -> 4 databases, 3 -> 13)")
	scale := flag.Float64("scale", 1, "workload scale factor")
	indexPath := flag.String("index", "", "load the A' index from this JSON-lines file (e.g. from quepa-collect -out) instead of the generated one")
	debug := flag.Bool("debug", false, "expose net/http/pprof under /debug/pprof/")
	slow := flag.Duration("slow", telemetry.DefaultSlowThreshold, "queries slower than this are kept in /debug/traces")
	version := flag.Bool("version", false, "print build information and exit")
	explainCap := flag.Int("explain-cap", explain.DefaultBufferCapacity, "EXPLAIN profiles kept in the /debug/explain ring")
	explainSample := flag.Int("explain-sample", 0, "profile every K-th request even without explain=1 (0 disables)")
	rcacheCap := flag.Int("rcache-cap", defaultRcacheCap,
		"reach/outcome results the epoch-validated result cache holds (0 disables memoization)")
	logLevel := flag.String("log-level", "info", "minimum structured log level: debug, info, warn, error")
	breakerFailures := flag.Int("breaker-failures", resilience.DefaultFailureThreshold,
		"consecutive store failures that open its circuit breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", resilience.DefaultCooldown,
		"how long an open breaker rejects before a half-open probe")
	dataDir := flag.String("data-dir", "",
		"durable mode: journal index mutations to a WAL in this directory and recover from it at startup")
	fsyncPolicy := flag.String("fsync", wal.FsyncInterval,
		"WAL fsync policy: always (sync every append), interval (background), off (with -data-dir)")
	fsyncEvery := flag.Duration("fsync-interval", 100*time.Millisecond,
		"how often the background fsync loop flushes the WAL (with -fsync interval)")
	checkpointEvery := flag.Duration("checkpoint-interval", 5*time.Minute,
		"how often to checkpoint the index, bounding crash-replay work (0 disables; with -data-dir)")
	walSegmentBytes := flag.Int64("wal-segment-bytes", 8<<20,
		"rotate WAL segments at this size (with -data-dir)")
	drain := flag.Duration("drain", 10*time.Second,
		"graceful-shutdown window for in-flight requests before the final WAL flush")
	wireMode := flag.Bool("wire", false,
		"serve every database over a loopback TCP wire server and augment through multiplexed wire clients (exercises the full remote fetch path)")
	pool := flag.Int("pool", wire.DefaultPoolSize,
		"multiplexed connections per wire client (with -wire or -cluster)")
	clusterPeers := flag.String("cluster", "",
		"comma-separated wire addresses of every cluster peer ordered by shard id; enables sharded scatter-gather mode")
	shardID := flag.Int("shard-id", 0,
		"this peer's shard id: the index of its own address in -cluster")
	clusterVnodes := flag.Int("cluster-vnodes", cluster.DefaultVnodes,
		"virtual nodes per peer on the consistent-hash ring (all peers must agree)")
	clusterSeed := flag.Uint64("cluster-seed", 0,
		"ring hash seed, 0 selects the built-in default (all peers must agree)")
	traceSample := flag.Float64("trace-sample", telemetry.DefaultSampleRate,
		"probability of keeping a fast, unflagged trace (slow/errored/degraded/breaker traces are always kept)")
	traceLog := flag.String("trace-log", "",
		"append kept traces as JSON lines to this file (rotated once at -trace-log-bytes)")
	traceLogBytes := flag.Int64("trace-log-bytes", 16<<20,
		"rotate the trace log when it reaches this size (with -trace-log)")
	sloSearchP99 := flag.Duration("slo-search-p99", 0,
		"latency objective for /search: -slo-target of requests must finish within this (0 disables)")
	sloStepP99 := flag.Duration("slo-step-p99", 0,
		"latency objective for /explore/step (0 disables)")
	sloTarget := flag.Float64("slo-target", slo.DefaultTarget,
		"fraction of requests that must meet the latency objective")
	sloFastBurn := flag.Float64("slo-fast-burn", slo.DefaultFastBurn,
		"burn-rate threshold: /healthz degrades when both alert windows burn at or above it")
	sloInterval := flag.Duration("slo-interval", slo.DefaultInterval,
		"how often the SLO engine samples the route histograms")
	flag.Parse()
	if *version {
		fmt.Println(buildVersion())
		return
	}
	lvl, err := telemetry.ParseLogLevel(*logLevel)
	if err != nil {
		log.Fatal(err)
	}
	telemetry.SetLogLevel(lvl)
	telemetry.DefaultTracer().SetSlowThreshold(*slow)
	telemetry.DefaultTracer().SetSampleRate(*traceSample)
	var traceSink *telemetry.TraceLog
	if *traceLog != "" {
		traceSink, err = telemetry.NewTraceLog(*traceLog, *traceLogBytes)
		if err != nil {
			log.Fatal(err)
		}
		telemetry.DefaultTracer().SetExporter(traceSink)
		log.Printf("quepa-server: exporting kept traces to %s (rotate at %d bytes)", *traceLog, *traceLogBytes)
	}

	spec := workload.DefaultSpec().Scale(*scale)
	spec.ReplicaRounds = *replicas
	built, err := workload.Build(spec, workload.Colocated())
	if err != nil {
		log.Fatal(err)
	}
	index := built.Index
	if *indexPath != "" {
		f, err := os.Open(*indexPath)
		if err != nil {
			log.Fatal(err)
		}
		index, err = aindex.ReadIndex(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		built.Index = index
		log.Printf("quepa-server: loaded A' index from %s", *indexPath)
	}
	if _, err := wal.ParseFsyncPolicy(*fsyncPolicy); err != nil {
		log.Fatal(err)
	}
	manager, err := openDurable(built, durableOptions{
		DataDir:       *dataDir,
		Fsync:         *fsyncPolicy,
		FsyncInterval: *fsyncEvery,
		SegmentBytes:  *walSegmentBytes,
	})
	if err != nil {
		log.Fatal(err)
	}
	if manager != nil {
		if rec := manager.Recovery(); rec.Recovered {
			log.Printf("quepa-server: recovered index from %s: checkpoint epoch %d, %d batches (%d ops) replayed in %v",
				*dataDir, rec.CheckpointEpoch, rec.ReplayedBatches, rec.ReplayedOps, rec.Duration.Round(time.Millisecond))
		} else {
			log.Printf("quepa-server: seeded fresh data dir %s (fsync=%s)", *dataDir, *fsyncPolicy)
		}
	}
	if *wireMode {
		// Re-home every store behind a loopback TCP wire server and dial it
		// back with a multiplexed client, so the augmenter pays the real
		// remote fetch path (frames, demux, retries) instead of in-process
		// calls. The servers live for the process; no teardown needed.
		poly := core.NewPolystore()
		for _, name := range built.Poly.Databases() {
			st, err := built.Poly.Database(name)
			if err != nil {
				log.Fatal(err)
			}
			srv, err := wire.Serve(st, "127.0.0.1:0")
			if err != nil {
				log.Fatal(err)
			}
			cli, err := wire.DialConfig(srv.Addr(), wire.ClientConfig{
				Retry: resilience.DefaultRetryPolicy(), PoolSize: *pool,
			})
			if err != nil {
				log.Fatal(err)
			}
			if err := poly.Register(cli); err != nil {
				log.Fatal(err)
			}
		}
		built.Poly = poly
		log.Printf("quepa-server: wire loopback enabled, %d multiplexed connections per store", *pool)
	}
	bcfg := resilience.BreakerConfig{FailureThreshold: *breakerFailures, Cooldown: *breakerCooldown}
	var clusterRT *clusterRuntime
	if *clusterPeers != "" {
		if *wireMode {
			log.Fatal("quepa-server: -wire and -cluster are mutually exclusive")
		}
		clusterRT, err = setupCluster(built, *clusterPeers, *shardID, *clusterVnodes, *clusterSeed, bcfg, *pool, nil)
		if err != nil {
			log.Fatal(err)
		}
		logClusterUp(clusterRT)
	}
	s, err := newServer(built, augment.Config{Strategy: augment.OuterBatch, BatchSize: 64, ThreadsSize: 8, CacheSize: 4096},
		*explainCap, *explainSample, bcfg)
	if err != nil {
		log.Fatal(err)
	}
	s.wal = manager
	s.rcache.Resize(*rcacheCap)
	if manager != nil && manager.Recovery().Recovered {
		// A recovered index replaced the built one wholesale; any memoized
		// result predating recovery is flushed rather than trusted to age out.
		s.rcache.Invalidate()
	}
	if clusterRT != nil {
		s.installCluster(clusterRT)
	}

	var objectives []slo.Objective
	if *sloSearchP99 > 0 {
		objectives = append(objectives, slo.Objective{Route: "/search", Latency: *sloSearchP99, Target: *sloTarget})
	}
	if *sloStepP99 > 0 {
		objectives = append(objectives, slo.Objective{Route: "/explore/step", Latency: *sloStepP99, Target: *sloTarget})
	}
	var sloEngine *slo.Engine
	if len(objectives) > 0 {
		sloEngine, err = slo.New(slo.Config{
			Objectives: objectives,
			FastBurn:   *sloFastBurn,
			Interval:   *sloInterval,
			OnFastBurn: captureFastBurnProfiles(*dataDir),
		})
		if err != nil {
			log.Fatal(err)
		}
		s.installSLO(sloEngine)
		sloEngine.Start()
		log.Printf("quepa-server: burn-rate alerting on %d route(s), fast-burn threshold %.1f",
			len(objectives), *sloFastBurn)
	}

	mux := s.routes()
	if *debug {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		log.Printf("quepa-server: pprof enabled under /debug/pprof/")
	}

	log.Printf("quepa-server: %d databases, index %d keys / %d p-relations, listening on %s",
		built.Poly.Size(), built.Index.NodeCount(), built.Index.EdgeCount(), *addr)

	// Graceful shutdown: SIGINT/SIGTERM stops accepting, drains in-flight
	// requests, stops the checkpoint ticker, and only then closes the WAL —
	// which flushes the final segment and writes the shutdown checkpoint, so
	// a clean restart replays nothing.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	stopCheckpoints := startCheckpointLoop(manager, *checkpointEvery)
	err = serveUntil(ctx, &http.Server{Handler: mux}, ln, *drain,
		func() error { stopCheckpoints(); return nil },
		func() error {
			if sloEngine != nil {
				sloEngine.Stop()
			}
			return nil
		},
		func() error {
			if manager == nil {
				return nil
			}
			return manager.Close()
		},
		func() error {
			if traceSink == nil {
				return nil
			}
			return traceSink.Close()
		},
		func() error {
			if clusterRT == nil {
				return nil
			}
			return clusterRT.close()
		})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("quepa-server: shut down cleanly")
}

// routes assembles the mux with every handler wrapped in the telemetry
// middleware (request counter, latency histogram, root span per request).
func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /databases", s.instrument("/databases", s.handleDatabases))
	mux.HandleFunc("GET /search", s.instrument("/search", s.handleSearch))
	mux.HandleFunc("GET /object", s.instrument("/object", s.handleObject))
	mux.HandleFunc("POST /explore", s.instrument("/explore", s.handleExploreStart))
	mux.HandleFunc("POST /explore/step", s.instrument("/explore/step", s.handleExploreStep))
	mux.HandleFunc("POST /explore/finish", s.instrument("/explore/finish", s.handleExploreFinish))
	mux.HandleFunc("GET /stats", s.instrument("/stats", s.handleStats))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /debug/explain", s.handleExplain)
	return mux
}

// registerMetrics exports the server's component state (cache, index,
// sessions) on the default registry as function-backed series.
func (s *server) registerMetrics() {
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
	reg.GaugeFunc("quepa_explain_profiles_seen", "EXPLAIN profiles recorded since start",
		func() float64 { return float64(s.explainBuf.Seen()) })
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

// statusWriter captures the response code for the request metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// statusCounters are the series one (route, status) pair increments.
type statusCounters struct {
	requests *telemetry.Counter
	// errors is the per-route series the SLO engine reads: 5xx responses
	// spend error budget no matter how fast they were produced. nil below 500.
	errors *telemetry.Counter
}

func newStatusCounters(route string, code int) *statusCounters {
	c := &statusCounters{requests: telemetry.NewCounter("quepa_http_requests_total",
		"HTTP requests served by route and status",
		telemetry.L("route", route), telemetry.L("code", strconv.Itoa(code)))}
	if code >= 500 {
		c.errors = telemetry.NewCounter(slo.ErrorCounter, "HTTP 5xx responses by route",
			telemetry.L("route", route))
	}
	return c
}

// instrument wraps a handler with a per-route latency histogram, a per-route
// and per-status request counter, and a root span that lands in the
// slow-query log when the request crosses the threshold. The counters are
// resolved in the registry on first sight of a status and kept, so a series
// still appears in /metrics only once its status was served.
func (s *server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	hist := telemetry.NewHistogram("quepa_http_request_duration_seconds",
		"latency of HTTP requests by route", nil, telemetry.L("route", route))
	var byCode sync.Map // status code -> *statusCounters
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, span := telemetry.StartSpan(r.Context(), "http "+route)
		span.SetAttr("url", r.URL.String())
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := telemetry.Now()
		h(sw, r.WithContext(ctx))
		hist.Since(start)
		span.SetAttr("status", strconv.Itoa(sw.code))
		span.End()
		v, ok := byCode.Load(sw.code)
		if !ok {
			v, _ = byCode.LoadOrStore(sw.code, newStatusCounters(route, sw.code))
		}
		counters := v.(*statusCounters)
		counters.requests.Inc()
		if counters.errors != nil {
			counters.errors.Inc()
		}
		// start is the zero time when telemetry is off — no clock reads then.
		if !start.IsZero() {
			if d := time.Since(start); d >= telemetry.DefaultTracer().SlowThreshold() {
				telemetry.Log(telemetry.LogWarn, "slow query",
					telemetry.F("route", route),
					telemetry.F("ms", math.Round(float64(d.Nanoseconds())/1e3)/1e3),
					telemetry.F("status", sw.code))
			}
		}
	}
}

// installSLO attaches a burn-rate engine: /healthz starts answering 503
// while any objective fast-burns, and /stats grows an "slo" section.
func (s *server) installSLO(e *slo.Engine) { s.slo = e }

// handleHealthz is the load-balancer probe: 200 while every store's breaker
// admits calls, 503 as soon as one is open or an SLO fast-burns. The body
// carries the per-store breaker snapshots either way, so a failing probe is
// self-explaining. Like /metrics it skips the instrument middleware — probes
// fire too often to be worth tracing.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.res.AnyOpen() {
		status, code = "degraded", http.StatusServiceUnavailable
	}
	body := map[string]any{"breakers": s.res.Snapshot()}
	body["rcache"] = map[string]any{
		"len":       s.rcache.Len(),
		"hit_ratio": s.rcache.HitRatio(),
	}
	if s.cluster != nil {
		// A burning peer degrades the probe like a burning store does: its
		// shard of every answer is missing until the breaker closes again.
		if s.cluster.AnyPeerOpen() {
			status, code = "degraded", http.StatusServiceUnavailable
		}
		body["cluster"] = s.cluster.Status(false)
	}
	if s.slo != nil {
		// Fast burn means the error budget is being spent at page-worthy
		// speed: fall out of the balancer before the budget is gone.
		if burning := s.slo.FastBurning(); len(burning) > 0 {
			status, code = "degraded", http.StatusServiceUnavailable
			body["slo_fast_burn"] = burning
		}
	}
	if s.wal != nil {
		// A sticky WAL error means new mutations are no longer being made
		// durable — the server still answers queries, but it must fall out of
		// the balancer so a healthy replica takes the writes.
		if werr := s.wal.Err(); werr != nil {
			status, code = "degraded", http.StatusServiceUnavailable
			body["wal_error"] = werr.Error()
		}
		body["durable_epoch"] = s.wal.Stats().DurableEpoch
	}
	body["status"] = status
	writeJSON(w, code, body)
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.Default().WritePrometheus(w)
}

func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	minMS, err := floatParam(q, "min_ms", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	route := q.Get("route")
	traceID := q.Get("trace_id")
	store := q.Get("store")
	tracer := telemetry.DefaultTracer()
	seen, kept := tracer.Stats()
	all := tracer.Snapshot()
	traces := make([]telemetry.SpanJSON, 0, len(all))
	for _, t := range all {
		// Root spans are named "http <route>"; accept both spellings so
		// ?route=/search and ?route=http+/search find the same traces.
		if route != "" && t.Name != route && t.Name != "http "+route {
			continue
		}
		if t.DurationMS < minMS {
			continue
		}
		if traceID != "" && t.TraceID != traceID {
			continue
		}
		// ?store= keeps traces that touched the named store anywhere in the
		// tree — the attribute every wire/fetch span carries.
		if store != "" && !treeHasAttr(t, "store", store) {
			continue
		}
		traces = append(traces, t)
	}
	if q.Get("format") == "json" {
		w.Header().Set("Content-Disposition", `attachment; filename="quepa-traces.json"`)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"slow_threshold_ms": float64(tracer.SlowThreshold().Nanoseconds()) / 1e6,
		"roots_seen":        seen,
		"roots_kept":        kept,
		"sampling":          tracer.SamplingStats(),
		"traces":            traces,
	})
}

// treeHasAttr reports whether any span of the tree carries attrs[key] == val.
func treeHasAttr(t telemetry.SpanJSON, key, val string) bool {
	if t.Attrs[key] == val {
		return true
	}
	for _, c := range t.Children {
		if treeHasAttr(c, key, val) {
			return true
		}
	}
	return false
}

// handleExplain serves the EXPLAIN profile ring, slowest first, optionally
// restricted to one route with ?route=/search.
func (s *server) handleExplain(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"capacity": s.explainBuf.Capacity(),
		"seen":     s.explainBuf.Seen(),
		"profiles": s.explainBuf.Snapshot(r.URL.Query().Get("route")),
	})
}

// writeJSON serves the cold, free-form endpoints (/stats, /databases,
// /healthz, /debug/*) and errors; the hot routes encode through encode.go.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *server) handleDatabases(w http.ResponseWriter, r *http.Request) {
	type db struct {
		Name        string   `json:"name"`
		Kind        string   `json:"kind"`
		Collections []string `json:"collections"`
	}
	var out []db
	for _, name := range s.built.Poly.Databases() {
		store, err := s.built.Poly.Database(name)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		out = append(out, db{Name: name, Kind: store.Kind().String(), Collections: store.Collections()})
	}
	writeJSON(w, http.StatusOK, out)
}

// intParam parses a non-negative integer query parameter, returning def when
// the parameter is absent. Non-numeric or negative values are an error —
// never silently defaulted — so a typo'd request fails loudly with a 400.
func intParam(q url.Values, name string, def int) (int, error) {
	vs, ok := q[name]
	if !ok {
		return def, nil
	}
	v := vs[0]
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("parameter %s must be a non-negative integer, got %q", name, v)
	}
	return n, nil
}

// boolParam parses a boolean query parameter (1/0/true/false), returning
// false when absent. Anything else is an error, in line with intParam.
func boolParam(q url.Values, name string) (bool, error) {
	vs, ok := q[name]
	if !ok {
		return false, nil
	}
	switch vs[0] {
	case "1", "true":
		return true, nil
	case "0", "false":
		return false, nil
	}
	return false, fmt.Errorf("parameter %s must be a boolean (1/0/true/false), got %q", name, vs[0])
}

// floatParam parses a non-negative finite float parameter, returning def
// when absent.
func floatParam(q url.Values, name string, def float64) (float64, error) {
	vs, ok := q[name]
	if !ok {
		return def, nil
	}
	f, err := strconv.ParseFloat(vs[0], 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
		return 0, fmt.Errorf("parameter %s must be a non-negative number, got %q", name, vs[0])
	}
	return f, nil
}

// probParam parses a probability parameter in [0, 1], returning def when
// absent. NaN and ±Inf parse as floats but are rejected explicitly.
func probParam(q url.Values, name string, def float64) (float64, error) {
	vs, ok := q[name]
	if !ok {
		return def, nil
	}
	v := vs[0]
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) || f < 0 || f > 1 {
		return 0, fmt.Errorf("parameter %s must be a probability in [0, 1], got %q", name, v)
	}
	return f, nil
}

func (s *server) handleSearch(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	db, q := params.Get("db"), params.Get("q")
	if db == "" || q == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("db and q parameters are required"))
		return
	}
	level, err := intParam(params, "level", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Optional presentation controls (the paper's colors/rankings): minp
	// filters by probability, topk truncates the ranking.
	minProb, err := probParam(params, "minp", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	topK, err := intParam(params, "topk", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	explainOn, err := boolParam(params, "explain")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx := r.Context()
	var rec *explain.Recorder
	// sampled() must run unconditionally so explain=1 requests advance the
	// sampler too: -explain-sample profiles every K-th request, full stop.
	if sampled := s.sampled(); explainOn || sampled {
		ctx, rec = explain.WithRecorder(ctx, "/search")
	}
	rec.SetOptimizer(s.chooseConfig(db, q, level))
	start := time.Now()
	answer, err := s.aug.Search(ctx, db, q, level)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.observe(db, q, level, answer, time.Since(start))
	ranked := answer.Rank(minProb, topK)
	rec.RankPruned(len(answer.Augmented) - len(ranked))
	buf := bodyPool.Get().(*[]byte)
	body, err := appendSearch(*buf, answer.Original, ranked, answer.Degraded,
		s.finishProfile(rec, len(answer.Original)+len(ranked), explainOn))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	sendBody(w, buf, body)
}

// finishProfile closes a request's EXPLAIN recorder (nil when the request is
// not profiled), files the profile in the /debug/explain ring, and returns
// it for the response only when the client asked with explain=1.
func (s *server) finishProfile(rec *explain.Recorder, objects int, attach bool) *explain.Profile {
	p := rec.Finish(objects)
	if p == nil {
		return nil
	}
	s.explainBuf.Add(p)
	if !attach {
		return nil
	}
	return p
}

// sampled implements -explain-sample: profile every K-th request even when
// the client did not ask for explain=1, feeding the /debug/explain ring.
func (s *server) sampled() bool {
	return s.explainEvery > 0 && s.reqSeq.Add(1)%uint64(s.explainEvery) == 0
}

// chooseConfig runs the adaptive optimizer for one query. Its features —
// result and augmentation sizes — are only known once the query ran, so the
// previous observation of the same query signature stands in (zeroes on
// first sight). An untrained optimizer leaves the configuration untouched.
func (s *server) chooseConfig(db, q string, level int) explain.Decision {
	s.optMu.Lock()
	defer s.optMu.Unlock()
	last := s.lastSeen[queryKey{db, q, level}]
	f := optimizer.QueryFeatures{
		ResultSize:    last.result,
		AugmentedSize: last.augmented,
		Level:         level,
		NumStores:     s.built.Poly.Size(),
	}
	cfg, dec := s.opt.ChooseExplained(f, s.aug.Config().CacheSize)
	if dec.Trained {
		s.aug.SetConfig(cfg)
	}
	return dec
}

// observe feeds a completed search back into the optimizer (Phase 1) and
// remembers its observed sizes for the next decision on the same query.
func (s *server) observe(db, q string, level int, answer *augment.Answer, elapsed time.Duration) {
	f := optimizer.QueryFeatures{
		ResultSize:    len(answer.Original),
		AugmentedSize: len(answer.Augmented),
		Level:         level,
		NumStores:     s.built.Poly.Size(),
	}
	sig := queryKey{db, q, level}
	s.optMu.Lock()
	if _, known := s.lastSeen[sig]; !known {
		if len(s.lastSeenOrder) >= maxLastSeen {
			oldest := s.lastSeenOrder[0]
			s.lastSeenOrder = s.lastSeenOrder[1:]
			delete(s.lastSeen, oldest)
		}
		s.lastSeenOrder = append(s.lastSeenOrder, sig)
	}
	s.lastSeen[sig] = lastRun{result: f.ResultSize, augmented: f.AugmentedSize}
	cfg := s.aug.Config()
	s.optMu.Unlock()
	s.opt.Log(optimizer.RunLog{Features: f, Config: cfg, Duration: elapsed})
}

func (s *server) handleObject(w http.ResponseWriter, r *http.Request) {
	gk, err := core.ParseGlobalKey(r.URL.Query().Get("key"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	obj, err := s.built.Poly.Fetch(r.Context(), gk)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	buf := bodyPool.Get().(*[]byte)
	sendBody(w, buf, appendObjectLinks(*buf, obj, s.built.Index.Neighbors(gk)))
}

func (s *server) handleExploreStart(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	sess, start, err := s.aug.Explore(r.Context(), params.Get("db"), params.Get("q"), s.tracker)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	s.nextID++
	id := strconv.Itoa(s.nextID)
	s.sessions[id] = sess
	s.mu.Unlock()
	buf := bodyPool.Get().(*[]byte)
	sendBody(w, buf, appendExploreStart(*buf, id, start))
}

func (s *server) session(id string) (*augment.Exploration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[id]
	if !ok {
		return nil, fmt.Errorf("unknown session %q", id)
	}
	return sess, nil
}

func (s *server) handleExploreStep(w http.ResponseWriter, r *http.Request) {
	params := r.URL.Query()
	sess, err := s.session(params.Get("session"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	gk, err := core.ParseGlobalKey(params.Get("key"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	explainOn, err := boolParam(params, "explain")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx := r.Context()
	var rec *explain.Recorder
	// As in handleSearch: evaluate sampled() before the short-circuit so
	// every request advances the -explain-sample counter.
	if sampled := s.sampled(); explainOn || sampled {
		ctx, rec = explain.WithRecorder(ctx, "/explore/step")
	}
	links, err := sess.Step(ctx, gk)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	buf := bodyPool.Get().(*[]byte)
	body, err := appendStep(*buf, links, sess.Degraded(), s.finishProfile(rec, len(links), explainOn))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	sendBody(w, buf, body)
}

func (s *server) handleExploreFinish(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("session")
	sess, err := s.session(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	promoted := sess.Finish()
	s.mu.Lock()
	delete(s.sessions, id)
	s.mu.Unlock()
	buf := bodyPool.Get().(*[]byte)
	sendBody(w, buf, appendExploreFinish(*buf, promoted, sess.Path()))
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	hits, misses := s.aug.Cache().Stats()

	// Per-strategy query counts and latency quantiles from the telemetry
	// registry; only strategies that actually ran are listed.
	strategies := map[string]any{}
	for name, snap := range augment.StrategyStats() {
		if snap.Count == 0 {
			continue
		}
		strategies[name] = map[string]any{
			"count":  snap.Count,
			"p50_ms": roundMS(snap.P50),
			"p95_ms": roundMS(snap.P95),
			"p99_ms": roundMS(snap.P99),
		}
	}
	seen, kept := telemetry.DefaultTracer().Stats()
	reg := telemetry.Default()
	fallbacks := reg.CounterValue("quepa_optimizer_fallback_total", telemetry.L("reason", "untrained")) +
		reg.CounterValue("quepa_optimizer_fallback_total", telemetry.L("reason", "parse_strategy"))
	var durability any
	if s.wal != nil {
		durability = s.wal.Stats()
	} else {
		durability = map[string]any{"enabled": false}
	}
	var sloSection any
	if s.slo != nil {
		sloSection = map[string]any{
			"fast_burn_threshold": s.slo.FastBurnThreshold(),
			"objectives":          s.slo.Snapshot(),
		}
	} else {
		sloSection = map[string]any{"enabled": false}
	}
	var clusterSection any
	if s.cluster != nil {
		clusterSection = s.cluster.Status(true)
	} else {
		clusterSection = map[string]any{"enabled": false}
	}
	rcStats := s.rcache.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"cluster":    clusterSection,
		"slo":        sloSection,
		"durability": durability,
		"rcache": map[string]any{
			"capacity":         s.rcache.Capacity(),
			"len":              rcStats.Len,
			"hits":             rcStats.Hits,
			"misses":           rcStats.Misses,
			"hit_ratio":        s.rcache.HitRatio(),
			"epoch_mismatches": rcStats.EpochMismatches,
			"evictions":        rcStats.Evictions,
			"invalidations":    rcStats.Invalidations,
		},
		"databases":   s.built.Poly.Size(),
		"index_keys":  s.built.Index.NodeCount(),
		"index_edges": s.built.Index.EdgeCount(),
		"cache_len":   s.aug.Cache().Len(),
		"cache_hits":  hits,
		"cache_miss":  misses,
		"config":      s.aug.Config().String(),
		"build":       buildSection(),
		"aindex": map[string]any{
			"snapshot":        s.built.Index.SnapshotInfo(),
			"reach_snapshot":  reg.CounterValue("quepa_aindex_reach_snapshot_total"),
			"reach_fallback":  reg.CounterValue("quepa_aindex_reach_fallback_total"),
			"collector_pairs": reg.CounterValue("quepa_collector_pairs_scored_total"),
			"collector_drops": reg.CounterValue("quepa_collector_blocks_dropped_total"),
		},
		"resilience": map[string]any{
			"breakers":         s.res.Snapshot(),
			"any_open":         s.res.AnyOpen(),
			"degraded_answers": reg.CounterValue("quepa_augment_degraded_total"),
		},
		"optimizer": map[string]any{
			"name":      s.opt.Name(),
			"trained":   s.opt.Trained(),
			"runs":      s.opt.LogCount(),
			"fallbacks": fallbacks,
			"retrains":  reg.CounterValue("quepa_optimizer_retrain_total"),
		},
		"telemetry": map[string]any{
			"cache_hit_ratio":   s.aug.Cache().HitRatio(),
			"cache_evictions":   s.aug.Cache().Evictions(),
			"strategies":        strategies,
			"aindex_reach_keys": reg.CounterValue("quepa_aindex_reach_keys_total"),
			"aindex_removals":   reg.CounterValue("quepa_aindex_removals_total"),
			"aindex_promotions": reg.CounterValue("quepa_aindex_promotions_total"),
			"slow_queries_seen": seen,
			"slow_queries_kept": kept,
		},
	})
}

func roundMS(d time.Duration) float64 {
	return math.Round(float64(d.Nanoseconds())/1e3) / 1e3
}

// buildSection reports how this binary was built — Go version, module, and
// the VCS stamp when the toolchain embedded one — for /stats and -version.
func buildSection() map[string]any {
	out := map[string]any{"go": runtime.Version()}
	bi, ok := rdebug.ReadBuildInfo()
	if !ok {
		return out
	}
	out["path"] = bi.Path
	if bi.Main.Version != "" {
		out["module_version"] = bi.Main.Version
	}
	for _, setting := range bi.Settings {
		switch setting.Key {
		case "vcs.revision":
			out["revision"] = setting.Value
		case "vcs.time":
			out["vcs_time"] = setting.Value
		case "vcs.modified":
			out["modified"] = setting.Value == "true"
		}
	}
	return out
}

func buildVersion() string {
	b := buildSection()
	rev, _ := b["revision"].(string)
	if rev == "" {
		rev = "devel"
	}
	return fmt.Sprintf("quepa-server %s (%s)", rev, b["go"])
}
