# QUEPA reproduction — common development targets.

GO ?= go

.PHONY: all build vet test race cover bench bench-hotpath bench-stores bench-build bench-recovery bench-trace ledger ledger-compare chaos cluster crashtest fuzz figures promlint loc clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Coverage over every package (cmd/ included — go vet/test ./... already
# cover it); writes cover.out and prints the per-function summary.
cover:
	$(GO) test -coverprofile=cover.out -covermode=atomic ./...
	$(GO) tool cover -func=cover.out | tail -1

# Regenerates every figure of the paper (Figs. 9-13 plus the extra cache
# and ablation experiments). Takes a few minutes.
bench:
	$(GO) test -bench=. -benchmem

# Concurrency microbenchmarks of the fetch hot path (sharded cache,
# coalescing, wire mux) with allocation counts — the numbers the PR 4
# overhaul moves.
bench-hotpath:
	$(GO) test -bench='CacheGet|Follower|Mux|HotPath' -benchmem -run='^$$' \
		./internal/cache/ ./internal/coalesce/ ./internal/wire/ ./internal/augment/

# The scan stores' range selection (50 seq values of 10,000 rows), read
# through each store's ordered index and by a scan: relstore, docstore and
# graphstore.
bench-stores:
	$(GO) test -bench='SelectRange' -benchmem -run='^$$' \
		./internal/stores/relstore/ ./internal/stores/docstore/ ./internal/stores/graphstore/

# Fault-injection suite under the race detector: every chaos, fault, breaker
# and retry test across the tree (the CI chaos job runs exactly this).
chaos:
	$(GO) test -race -run 'Chaos|Fault|Breaker|Retry' ./internal/... ./cmd/...

# A' construction sweep: the full collector pipeline + bulk load, swept over
# object count × scoring workers, plus the Reach fast-path microbenchmarks
# and the snapshot full-build vs patch pair at the ledger's index size.
# The sweep itself fails if any worker count changes the discovered
# relations, so it doubles as a determinism check.
bench-build:
	$(GO) run ./cmd/quepa-bench -fig build
	$(GO) test -bench='ReachSnapshot|ReachLockedFallback|BulkLoad|SnapshotFull|SnapshotPatch' -benchmem -run='^$$' ./internal/aindex/

# The performance ledger — the only harness that records, compares or guards
# a performance number: builds quepa-server, replays the BENCHMARK.json
# workloads over HTTP, writes .bench_build/ledger/results.json (see
# benchmark/README.md).
ledger:
	$(GO) run ./benchmark

# Judge two ledger result files against the BENCHMARK.json bounds:
# make ledger-compare A=parent.json B=change.json
ledger-compare:
ifeq ($(and $(A),$(B)),)
	$(error usage: make ledger-compare A=<results.json> B=<results.json>)
endif
	$(GO) run ./benchmark compare $(A) $(B)

# Distributed-tracing overhead gate: rerun the traced-vs-untraced hot-path
# search pair and fail if tracing costs more than +30% and a 2ms noise floor.
bench-trace:
	QUEPA_TRACE_GUARD=1 $(GO) test -run TestTraceOverheadGuard -count=1 -v ./internal/augment/

# Prometheus text-exposition conformance: lint the registry's /metrics
# rendering (every metric shape the server exports, plus whatever the global
# registry accumulated) against the 0.0.4 format rules scrapers enforce.
promlint:
	$(GO) test -run PromLint -count=1 ./internal/telemetry/

# Multi-peer cluster suite under the race detector (the CI cluster job runs
# exactly this): ring property tests, scatter-gather equivalence against the
# single-node index, peer-down -> "peer-open" degradation, slow-shard
# timeouts, snapshot bootstrap and ring rebalance, and the 3-peer HTTP server
# acceptance test. Every scenario runs over in-process netsim peers with
# deterministic fault plans, so the lane replays bit-for-bit on any runner.
cluster:
	$(GO) test -race -run 'Cluster|Ring|Scatter|Rebalance|Snapshot' \
		./internal/cluster/ ./cmd/quepa-server/

# Crash-recovery suite: SIGKILL a re-exec'd process mid-write (both the raw
# WAL writer and a live quepa-server under load) and verify the reopened data
# dir holds exactly a committed prefix — at least everything acknowledged
# under fsync=always. Repeated runs catch timing-dependent torn tails.
crashtest:
	$(GO) test -run 'TestCrashRecovery|TestServerCrashRecovery' -count=3 ./internal/wal/ ./cmd/quepa-server/
	$(GO) test -run 'TestTorn' ./internal/wal/

# Recovery-vs-recollection sweep: checkpoint load + log-tail replay must beat
# re-running the collector by a wide margin at every scale, and the recovered
# index must be byte-identical to the pre-crash one (the figure fails if not).
bench-recovery:
	$(GO) run ./cmd/quepa-bench -fig recovery

# Short fuzzing pass over the parsers, the relational store's ordered index
# against its scan, the A' binary snapshot loader, the wire-frame decoders,
# and the server's response encoder against encoding/json.
fuzz:
	$(GO) test ./internal/core -fuzz=FuzzParseGlobalKey -fuzztime=15s -run='^$$'
	$(GO) test ./internal/stores/relstore -fuzz=FuzzParse -fuzztime=15s -run='^$$'
	$(GO) test ./internal/stores/relstore -fuzz=FuzzRangeIndex -fuzztime=15s -run='^$$'
	$(GO) test ./internal/stores/docstore -fuzz=FuzzParseFilter -fuzztime=15s -run='^$$'
	$(GO) test ./internal/aindex -fuzz=FuzzReadSnapshot -fuzztime=15s -run='^$$'
	$(GO) test ./internal/wire -fuzz=FuzzDecodeFrame -fuzztime=15s -run='^$$'
	$(GO) test ./cmd/quepa-server -fuzz=FuzzEncodeObject -fuzztime=15s -run='^$$'

# One figure: make figures FIG=11ab
FIG ?= all
figures:
	$(GO) run ./cmd/quepa-bench -fig $(FIG)

# Non-test Go lines outside benchmark/: the number ROADMAP's size target and
# every deletion PR report.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs wc -l | tail -1

clean:
	$(GO) clean ./...
	rm -f cover.out
	rm -rf .bench_build/
