# Tier-1 verification: `make check` is what CI (and the next PR) runs.
GO ?= go

.PHONY: all build test race vet check bench fuzz bench-build fmt-check

all: check

build:
	$(GO) build ./...
	$(GO) build -o /dev/null ./cmd/trshard

test:
	$(GO) test ./...

# Race-hardened packages: the serving path, the metric registry, the
# graph views and the scoring engine (its similarity byte table is built
# on first use and then read concurrently) are exercised under the race
# detector on every check.
# The ./internal/landmark/ and ./internal/core/ runs include the parallel
# preprocessing workers sharing one read-only in-adjacency and the
# overlay-equivalence differential suites (plus the fuzzers' seed
# corpora); a full -race run over the repository is `make race-all`.
# The ./internal/dynamic/ run includes the reader/writer stress tests
# (four readers beside a writer applying 20 batches, under Eager and under
# Lazy, where the readers refresh topics); the manager's lock-discipline
# tests then run again at GOMAXPROCS 1 and 2.
DYNAMIC_LOCK_TESTS = ^Test(ReadersDoNotWaitForReaders|WriterExcludesReaders|ReadersBesideWriterMatchFreshManager|LazyReadersBesideWriterMatchFreshManager|LazyPriorityQueryReadsUnderReadLock)$$
race:
	$(GO) test -race ./internal/server/... ./internal/subscribe/... ./internal/client/... ./internal/metrics/... ./internal/dynamic/... ./internal/landmark/... ./internal/eval/... ./internal/graph/... ./internal/core/... ./internal/distrib/... ./internal/store/... ./internal/ingest/...
	$(GO) test -race -cpu 1,2 -run '$(DYNAMIC_LOCK_TESTS)' ./internal/dynamic/

.PHONY: race-all
race-all:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

check: build vet fmt-check test race kernel-gate bench-build orphans

# bench-build compiles the whole-stack benchmark (bench/, the separate
# module repro/bench) and its tests against this tree: an exported-API
# change that would break the benchmark fails here, not in the pipeline
# that runs BENCHMARK.json.
bench-build:
	$(GO) vet -C bench ./...

# orphans fails when a package under internal/ is linked into nothing
# that ships: it must be in the dependency closure of the commands, the
# examples, the public tr packages, the root package or the benchmark
# module (bench/). A package that only its own tests import is code no
# program runs; delete it or wire it into a program.
.PHONY: orphans
orphans:
	@pkgs="$$($(GO) list ./internal/...)" && \
	used="$$($(GO) list -deps ./cmd/... ./examples/... ./tr/... . && $(GO) list -C bench -deps .)" && \
	out="$$( { printf '%s\n' "$$used"; printf 'pkg %s\n' $$pkgs; } | \
		awk '$$1 == "pkg" { if (!($$2 in used)) print $$2; next } { used[$$1] = 1 }')" && \
	if [ -n "$$out" ]; then echo "orphans: packages no shipped program links:"; echo "$$out"; exit 1; fi

# fmt-check fails when any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# kernel-gate is the exploration-loop allocation regression guard: the
# all-topic hop-recurrence benchmark must stay within its allocs/op bound
# on the 3000-node bench graph (3 allocs/op with the results read in
# place; the bound is the one set when they were copied into maps, 121).
# A refactor that reintroduces per-hop or per-edge allocation trips this
# before it needs a profile.
# The factored converged exploration (one landmark's preprocessing on the
# 2000- and 8000-node graphs) runs its passes in the scratch's rows and
# front buffer and allocates its result only: 1 allocs/op.
# The landmark refresh (in-adjacency build + factored explorations into
# flat result rows + list selection, g2k) is gated the same way: ~120
# allocs/op for one landmark and ~1730 for 27 (57 of them per landmark are
# the stored lists themselves), against 775 and 20639 when every
# exploration spilled three per-node maps. The per-topic refresh of the
# same 27 landmarks (landmarks=27,topics=1: factored explorations shared
# by groups of landmarks, two lists per landmark) took 235-245 allocs/op
# when it was added, at GOMAXPROCS 2; it is gated at 360, the same half
# again the whole-landmark bounds leave for worker and group counts.
# The 27-landmark refresh also reports the heap its store retains per
# list entry (B/entry): a node id and float32 σ and topo_β, 12 bytes,
# ≈12.5 measured with the lists' headers and size-class rounding. It is
# gated at 13; with float64 columns it was ≈20.
# The landmark query (depth-2 pruned exploration read in place from the
# engine's pooled scratch, plus the fold into the same scratch's dense
# fold buffer, 30 landmarks; BenchmarkApproxQuery/g3k on 3000 nodes and
# /g8k on the 8000-node serving shape) takes 5 allocs/op: the
# exploration's result header and the top-n list. Both cases are gated at
# 5 + 2. It took 14 while Reached was allocated per query, 30 when the
# fold summed into a per-query map, 122 when the exploration's scores
# were copied into maps.
# The served landmark request (BenchmarkServeRecommend/handler: GET
# /v1/recommend through Server.Handler() on the 8000-node serving shape,
# every key a cache miss) took 63-65 allocs/op when it was added, against 6
# for the query alone (/manager): the request, the recorder, the metrics
# middleware, the deadline, the cache insertion, the response and its JSON
# encoding. It is gated at 64 + 2.
# The standing-query marking (BenchmarkHubOnBatch, internal/subscribe: one
# batch effect marked against 64 or 1024 subscription groups on the
# 8000-node graph) takes 2 allocs/op: the effect's node bitset and the
# per-group tier bytes. It took 15-34 while the hub kept a node→groups
# map index. It is gated at 2 + 2, and the heap the hub retains per
# (group, dependency node) pair at 8 bytes: a group keeps its dependency
# set as one sorted node slice, ≈5 B/pair with the group's own overhead,
# where the map index held 32-43.
KERNEL_GATE_DENSE_ALLOCS ?= 135
KERNEL_GATE_CONVERGED_ALLOCS ?= 8
KERNEL_GATE_REFRESH1_ALLOCS ?= 300
KERNEL_GATE_REFRESH27_ALLOCS ?= 2600
KERNEL_GATE_REFRESH27T1_ALLOCS ?= 360
KERNEL_GATE_REFRESH_BYTES_PER_ENTRY ?= 13
KERNEL_GATE_QUERY_ALLOCS ?= 7
KERNEL_GATE_SERVE_ALLOCS ?= 66
KERNEL_GATE_HUB_ALLOCS ?= 4
KERNEL_GATE_HUB_BYTES_PER_PAIR ?= 8
.PHONY: kernel-gate
kernel-gate:
	$(GO) test -run='^$$' -bench='^BenchmarkExplore(Dense|Converged)$$' -benchmem ./internal/core/ | \
	awk -v dense=$(KERNEL_GATE_DENSE_ALLOCS) -v conv=$(KERNEL_GATE_CONVERGED_ALLOCS) '{ print } \
		/^BenchmarkExploreDense/ { seenD = 1; if ($$7+0 > dense) { printf "kernel-gate: dense explore %d allocs/op exceeds baseline %d\n", $$7, dense; bad = 1 } } \
		/^BenchmarkExploreConverged\// { seenC++; if ($$7+0 > conv) { printf "kernel-gate: converged explore %d allocs/op exceeds baseline %d\n", $$7, conv; bad = 1 } } \
		/^FAIL/ { bad = 1 } \
		END { if (!seenD || seenC != 2) { print "kernel-gate: benchmarks did not run"; bad = 1 } exit bad }'
	$(GO) test -run='^$$' -bench='^Benchmark(PreprocessRefresh|ApproxQuery)$$' -benchmem ./internal/landmark/ | \
	awk -v one=$(KERNEL_GATE_REFRESH1_ALLOCS) -v many=$(KERNEL_GATE_REFRESH27_ALLOCS) -v topic=$(KERNEL_GATE_REFRESH27T1_ALLOCS) -v query=$(KERNEL_GATE_QUERY_ALLOCS) -v entry=$(KERNEL_GATE_REFRESH_BYTES_PER_ENTRY) '{ print } \
		/^BenchmarkPreprocessRefresh\/landmarks=1-/ { seen1 = 1; if ($$7+0 > one) { printf "kernel-gate: 1-landmark refresh %d allocs/op exceeds baseline %d\n", $$7, one; bad = 1 } } \
		/^BenchmarkPreprocessRefresh\/landmarks=27-/ { seen27 = 1; \
			if ($$NF != "allocs/op" || $$(NF-1)+0 > many) { printf "kernel-gate: 27-landmark refresh %s allocs/op exceeds baseline %d\n", $$(NF-1), many; bad = 1 } \
			for (i = 2; i < NF; i++) if ($$(i+1) == "B/entry") { seenE = 1; if ($$i+0 > entry) { printf "kernel-gate: 27-landmark refresh retains %s B/entry, bound %d\n", $$i, entry; bad = 1 } } } \
		/^BenchmarkPreprocessRefresh\/landmarks=27,topics=1-/ { seenT = 1; if ($$7+0 > topic) { printf "kernel-gate: 27-landmark one-topic refresh %d allocs/op exceeds baseline %d\n", $$7, topic; bad = 1 } } \
		/^BenchmarkApproxQuery\// { seenQ++; if ($$7+0 > query) { printf "kernel-gate: landmark query %s %d allocs/op exceeds baseline %d\n", $$1, $$7, query; bad = 1 } } \
		/^FAIL/ { bad = 1 } \
		END { if (!seen1 || !seen27 || !seenE || !seenT || seenQ != 2) { print "kernel-gate: landmark benchmarks did not run"; bad = 1 } exit bad }'
	$(GO) test -run='^$$' -bench='^BenchmarkServeRecommend$$' -benchmem ./internal/server/ | \
	awk -v serve=$(KERNEL_GATE_SERVE_ALLOCS) '{ print } \
		/^BenchmarkServeRecommend\/handler-/ { seenS = 1; if ($$7+0 > serve) { printf "kernel-gate: served request %d allocs/op exceeds baseline %d\n", $$7, serve; bad = 1 } } \
		/^FAIL/ { bad = 1 } \
		END { if (!seenS) { print "kernel-gate: serving benchmark did not run"; bad = 1 } exit bad }'
	$(GO) test -run='^$$' -bench='^BenchmarkHubOnBatch$$' -benchmem ./internal/subscribe/ | \
	awk -v hub=$(KERNEL_GATE_HUB_ALLOCS) -v pair=$(KERNEL_GATE_HUB_BYTES_PER_PAIR) '{ print } \
		/^BenchmarkHubOnBatch\// { seenH++; \
			if ($$NF != "allocs/op" || $$(NF-1)+0 > hub) { printf "kernel-gate: hub marking %s %s allocs/op exceeds baseline %d\n", $$1, $$(NF-1), hub; bad = 1 } \
			for (i = 2; i < NF; i++) if ($$(i+1) == "B/pair" && $$i+0 > pair) { printf "kernel-gate: hub %s retains %s B/pair, bound %d\n", $$1, $$i, pair; bad = 1 } } \
		/^FAIL/ { bad = 1 } \
		END { if (seenH != 4) { print "kernel-gate: hub benchmark did not run"; bad = 1 } exit bad }'

# loc prints the non-test Go line count outside bench/, the size ROADMAP
# item 9 tracks (target <= 17,000). Not part of check.
.PHONY: loc
loc:
	@find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l

# bench watches the hot path: the Explore microbenchmarks (allocs/op is
# the regression guard for the exploration loop; BenchmarkExploreConverged
# is one landmark's factored preprocessing at 2000 and 8000 nodes), the
# landmark refresh on a decay-weighted overlay engine, the landmark query
# on the 3000-node Twitter graph and the 8000-node serving shape, the
# overlay-vs-rebuild delta apply, the per-update cost of Manager.Apply at
# batch sizes 1/4/16/64 on the streaming 8000-node manager and its
# invalidation pass alone on 16-update batches, the standing-query
# marking of one batch effect at 64 and 1024 subscription groups, the
# depth-2 out-traversal a standing query's re-score resolves its
# dependency set with (g2k and g8k), and the evaluation sweep at parallelism 1 and GOMAXPROCS. The whole stack is
# measured by bench-e2e below.
bench:
	$(GO) test -bench=BenchmarkExplore -benchmem ./internal/core/
	$(GO) test -run='^$$' -bench='BenchmarkPreprocessRefresh|BenchmarkApproxQuery' -benchmem ./internal/landmark/
	$(GO) test -run='^$$' -bench='BenchmarkApplyBatch|BenchmarkAffectedLandmarks' -benchmem ./internal/dynamic/
	$(GO) test -run='^$$' -bench=BenchmarkHubOnBatch -benchmem ./internal/subscribe/
	$(GO) test -run='^$$' -bench='BenchmarkWithoutEdges|BenchmarkBFSOut' -benchmem ./internal/graph/
	$(GO) test -bench=BenchmarkLinkPrediction -benchmem ./internal/eval/

# bench-e2e runs the whole-stack benchmark of BENCHMARK.json (bench/, a
# module of its own) three times per workload and writes OUT; bench-diff
# prints its verdict per (metric, workload) between two such files and
# exits 1 on any `worse`. Paths are taken from the repository root.
#   make bench-e2e OUT=bench/out/a.json
#   make bench-diff A=bench/out/a.json B=bench/out/b.json
OUT ?= bench/out/result.json
.PHONY: bench-e2e bench-diff
bench-e2e:
	$(GO) run -C bench . -runs 3 -out $(abspath $(OUT))

bench-diff:
	$(GO) run -C bench . -compare $(abspath $(A)) $(abspath $(B))

# fuzz smoke-runs the equivalence fuzzers (random edge deltas must leave
# the overlay observationally identical to a full rebuild and the
# incrementally maintained authority table bit-identical to a recompute)
# and the decoder fuzzers: arbitrary snapshot/landmark/WAL/decay bytes
# must decode or error, never panic, index outside the mapping, or yield
# a forged batch, and an arbitrary shard partial frame must decode or
# error and, when it decodes, round-trip.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzOverlayEquivalence -fuzztime=10s ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzApplyDeltaExact -fuzztime=10s ./internal/authority/
	$(GO) test -run='^$$' -fuzz=FuzzOpenSnapshot -fuzztime=10s ./internal/store/
	$(GO) test -run='^$$' -fuzz=FuzzOpenLandmarks -fuzztime=10s ./internal/store/
	$(GO) test -run='^$$' -fuzz=FuzzScanWAL -fuzztime=10s ./internal/store/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeDecay -fuzztime=10s ./internal/store/
	$(GO) test -run='^$$' -fuzz=FuzzDecodePartial -fuzztime=10s ./internal/distrib/

.PHONY: bench-all
bench-all:
	$(GO) test -bench=. -benchmem ./...
