// Command quepa-server exposes augmented search and augmented exploration
// over a REST interface, backed by a generated Polyphony polystore. It parses
// its flags into a server.Config, assembles the stack with server.New (see
// package internal/server for the endpoints and modes), and serves it until
// SIGINT/SIGTERM, which drains in-flight requests and then closes the stack
// (in durable mode: the final WAL flush and shutdown checkpoint).
//
// Example:
//
//	quepa-server -addr :8080 -replicas 1 &
//	curl 'localhost:8080/search?db=transactions&q=SELECT+*+FROM+inventory+WHERE+seq+<+3&explain=1'
//	curl 'localhost:8080/debug/explain'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"quepa/internal/server"
	"quepa/internal/slo"
	"quepa/internal/telemetry"
	"quepa/internal/wal"
	"quepa/internal/wire"
)

// drainTimeout is the graceful-shutdown window for in-flight requests
// before the stack closes.
const drainTimeout = 10 * time.Second

func main() {
	var cfg server.Config
	addr, version := defineFlags(flag.CommandLine, &cfg)
	flag.Parse()
	if *version {
		fmt.Println(server.Version())
		return
	}
	s, err := server.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		s.Close()
		log.Fatal(err)
	}
	log.Printf("quepa-server: listening on %s", ln.Addr())
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if err := serveUntil(ctx, &http.Server{Handler: s.Handler()}, ln, drainTimeout, s.Close); err != nil {
		log.Fatal(err)
	}
	log.Printf("quepa-server: shut down cleanly")
}

// defineFlags registers every quepa-server flag on fs: the listen address
// and -version, plus one flag per server.Config field. README's flag table
// lists exactly these (TestFlagTableMatchesREADME).
func defineFlags(fs *flag.FlagSet, cfg *server.Config) (addr *string, version *bool) {
	addr = fs.String("addr", "127.0.0.1:8080", "listen address")
	version = fs.Bool("version", false, "print build information and exit")
	fs.Float64Var(&cfg.Scale, "scale", 1, "workload scale factor")
	fs.IntVar(&cfg.Replicas, "replicas", 0, "replication rounds (0 -> 4 databases, 3 -> 13)")
	fs.StringVar(&cfg.IndexPath, "index", "",
		"load the A' index from this binary snapshot (e.g. from quepa-collect -out) instead of the generated one")
	fs.StringVar(&cfg.DataDir, "data-dir", "",
		"durable mode: journal index mutations to a WAL in this directory and recover from it at startup")
	fs.StringVar(&cfg.Fsync, "fsync", wal.FsyncInterval,
		"WAL fsync policy: always (sync every append), interval (background), off (with -data-dir)")
	fs.BoolVar(&cfg.Wire, "wire", false,
		"serve every database over a loopback TCP wire server and augment through multiplexed wire clients (exercises the full remote fetch path)")
	fs.IntVar(&cfg.Pool, "pool", wire.DefaultPoolSize,
		"multiplexed connections per wire client (with -wire or -cluster)")
	fs.StringVar(&cfg.Cluster, "cluster", "",
		"comma-separated wire addresses of every cluster peer ordered by shard id; enables sharded scatter-gather mode")
	fs.IntVar(&cfg.ShardID, "shard-id", 0, "this peer's shard id: the index of its own address in -cluster")
	fs.BoolVar(&cfg.Debug, "debug", false, "expose net/http/pprof under /debug/pprof/")
	fs.StringVar(&cfg.LogLevel, "log-level", "info", "minimum structured log level: debug, info, warn, error")
	fs.DurationVar(&cfg.Slow, "slow", telemetry.DefaultSlowThreshold, "queries slower than this are kept in /debug/traces")
	fs.StringVar(&cfg.TraceLog, "trace-log", "", "append kept traces as JSON lines to this file (rotated once at 16 MiB)")
	fs.IntVar(&cfg.ExplainSample, "explain-sample", 0, "profile every K-th request even without explain=1 (0 disables)")
	fs.DurationVar(&cfg.SLOSearchP99, "slo-search-p99", 0,
		"latency objective for /search: -slo-target of requests must finish within this (0 disables)")
	fs.DurationVar(&cfg.SLOStepP99, "slo-step-p99", 0, "latency objective for /explore/step (0 disables)")
	fs.Float64Var(&cfg.SLOTarget, "slo-target", slo.DefaultTarget, "fraction of requests that must meet the latency objective")
	return addr, version
}

// serveUntil runs srv on ln until ctx is cancelled (the signal path) or the
// listener fails, then shuts down in order: drain in-flight HTTP requests
// (bounded by drain), then run each hook — the server's Close flushes the
// final WAL segment and writes the shutdown checkpoint, so it must only run
// once no request can mutate the index. Returns the first error encountered.
func serveUntil(ctx context.Context, srv *http.Server, ln net.Listener, drain time.Duration, hooks ...func() error) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	var first error
	select {
	case err := <-errc:
		// Listener died on its own; still run the hooks so durable state is
		// flushed rather than left for crash recovery.
		if !errors.Is(err, http.ErrServerClosed) {
			first = err
		}
	case <-ctx.Done():
		shCtx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			// Drain window expired with requests still in flight: close them
			// hard. The hooks below still flush whatever was journaled.
			srv.Close()
			first = err
		}
		<-errc // Serve has returned ErrServerClosed by now
	}
	for _, hook := range hooks {
		if err := hook(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
