# QUEPA reproduction — common development targets.

GO ?= go

.PHONY: all build vet test examples race cover bench bench-hotpath bench-stores bench-build bench-recovery bench-trace ledger ledger-compare chaos cluster crashtest fuzz figures promlint loc clean

all: build vet test

build:
	$(GO) build ./...

# go vet, and fail if gofmt would rewrite any file (CI's Vet step runs this).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists files that need formatting:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

# Run every program under examples/ to completion; a non-zero exit fails.
examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d >/dev/null || exit 1; done

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

# Concurrency microbenchmarks of the fetch hot path (sharded cache, wire
# mux) with allocation counts, the per-request working set of a 50-origin
# range augmentation over one store of each kind (SearchRange50), the
# response encoder alone at the ledger's two body sizes (EncodeSearch), and
# the allocations of one /search through the server's handler: a warm point
# search (HandleSearchWarm) and a 50-origin level-2 range (HandleSearchRange).
bench-hotpath:
	$(GO) test -bench='CacheGet|Mux|SearchRange50|EncodeSearch|HandleSearch(Warm|Range)' -benchmem -run='^$$' \
		./internal/cache/ ./internal/wire/ ./internal/augment/ ./cmd/quepa-server/

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
# object count × scoring workers, plus the Reach microbenchmarks (per level
# on a 5,000-key index, and one range_cold request's 50 origins at level 2 in
# one AppendReachMany call, as the server reaches them, on the index
# workload.Build serves at scale 16), the component Stamp a
# result-cache hit pays, and the live heap and forced-GC time a scale-16 A'
# costs (IndexGC), at the ledger's index size; and the live heap and
# forced-GC time of the whole scale-16 workload.Build a server holds
# (ServedGC): stores, A' and metadata together.
# The sweep itself fails if any worker count changes the discovered
# relations, so it doubles as a determinism check.
bench-build:
	$(GO) run ./cmd/quepa-bench -fig build
	$(GO) test -bench='Reach|BulkLoad|Stamp|IndexGC' -benchmem -run='^$$' ./internal/aindex/
	$(GO) test -bench='ServedGC' -benchmem -run='^$$' ./internal/workload/

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
# exactly this): the island carve a shard is built from (Islands), ring
# property tests, scatter equivalence against the single-node index, the
# owners' reaches under concurrent index mutation (each reader reads its own
# writes), a two-origin reach racing a union promotion that must read one
# A' state (TestScatterReadsOneIndexState: a one-node augmentation, the self
# leg and an owner's ReachMany), a mutation changing one island's answers
# only, peer-down -> "peer-open" degradation scoped to the dead peer's
# origins, slow-shard timeouts, and the 3-peer HTTP server acceptance test.
# Every scenario runs over in-process netsim peers with deterministic fault
# plans, so the lane replays bit-for-bit on any runner.
cluster:
	$(GO) test -race -run 'Cluster|Ring|Scatter|Islands' \
		./internal/aindex/ ./internal/cluster/ ./cmd/quepa-server/

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

# Short fuzzing pass over every fuzzer in the tree, one anchored line each:
# the parsers (global key, relational SQL, document filter and query
# splitter), the relational store's LIKE matcher, its ordered index against
# its scan, its number predicate against strconv.ParseFloat, the validator
# against one store of each kind (whatever it admits, the engine executes),
# the A' binary snapshot loader, the wire-frame decoders, and the server's
# response encoder against encoding/json.
fuzz:
	$(GO) test ./internal/core -fuzz='^FuzzParseGlobalKey$$' -fuzztime=15s -run='^$$'
	$(GO) test ./internal/stores/relstore -fuzz='^FuzzParse$$' -fuzztime=15s -run='^$$'
	$(GO) test ./internal/stores/relstore -fuzz='^FuzzLikeMatch$$' -fuzztime=15s -run='^$$'
	$(GO) test ./internal/stores/relstore -fuzz='^FuzzRangeIndex$$' -fuzztime=15s -run='^$$'
	$(GO) test ./internal/stores/relstore -fuzz='^FuzzMayBeFloat$$' -fuzztime=15s -run='^$$'
	$(GO) test ./internal/stores/docstore -fuzz='^FuzzParseFilter$$' -fuzztime=15s -run='^$$'
	$(GO) test ./internal/stores/docstore -fuzz='^FuzzQueryParse$$' -fuzztime=15s -run='^$$'
	$(GO) test ./internal/validator -fuzz='^FuzzValidate$$' -fuzztime=15s -run='^$$'
	$(GO) test ./internal/aindex -fuzz='^FuzzReadSnapshot$$' -fuzztime=15s -run='^$$'
	$(GO) test ./internal/wire -fuzz='^FuzzDecodeFrame$$' -fuzztime=15s -run='^$$'
	$(GO) test ./cmd/quepa-server -fuzz='^FuzzEncodeObject$$' -fuzztime=15s -run='^$$'

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
