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
# graph views and the scoring engine (its shared similarity cache is hit
# concurrently) are exercised under the race detector on every check.
# The ./internal/landmark/ and ./internal/core/ runs include the parallel
# preprocessing workers sharing one read-only in-adjacency and the
# overlay-equivalence differential suites (plus the fuzzers' seed
# corpora); a full -race run over the repository is `make race-all`.
race:
	$(GO) test -race ./internal/server/... ./internal/subscribe/... ./internal/client/... ./internal/metrics/... ./internal/dynamic/... ./internal/landmark/... ./internal/eval/... ./internal/graph/... ./internal/core/... ./internal/distrib/... ./internal/store/... ./internal/ingest/...

.PHONY: race-all
race-all:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

check: build vet fmt-check test race kernel-gate bench-build

# bench-build compiles the whole-stack benchmark (bench/, the separate
# module repro/bench) and its tests against this tree: an exported-API
# change that would break the benchmark fails here, not in the pipeline
# that runs BENCHMARK.json.
bench-build:
	$(GO) vet -C bench ./...

# fmt-check fails when any file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# kernel-gate is the exploration-loop allocation regression guard: the
# all-topic hop-recurrence benchmark must stay within its allocs/op bound
# on the 3000-node bench graph (16 allocs/op with the results read in
# place; the bound is the one set when they were copied into maps, 121).
# A refactor that reintroduces per-hop or per-edge allocation trips this
# before it needs a profile.
# The factored converged exploration (one landmark's preprocessing on the
# 2000- and 8000-node graphs) runs its passes in the scratch's rows and
# allocates its result and Reached list only: 2 allocs/op.
# The landmark refresh (in-adjacency build + factored explorations into
# flat result rows + list selection, g2k) is gated the same way: ~120
# allocs/op for one landmark and ~1730 for 27 (57 of them per landmark are
# the stored lists themselves), against 775 and 20639 when every
# exploration spilled three per-node maps.
# The landmark query (depth-2 pruned exploration read in place from the
# engine's pooled scratch, plus the fold, 3000 nodes, 30 landmarks) takes
# 30 allocs/op: the fold's score map and the top-n list; 122 when the
# exploration's scores were copied into maps.
KERNEL_GATE_DENSE_ALLOCS ?= 135
KERNEL_GATE_CONVERGED_ALLOCS ?= 8
KERNEL_GATE_REFRESH1_ALLOCS ?= 300
KERNEL_GATE_REFRESH27_ALLOCS ?= 2600
KERNEL_GATE_QUERY_ALLOCS ?= 45
.PHONY: kernel-gate
kernel-gate:
	$(GO) test -run='^$$' -bench='^BenchmarkExplore(Dense|Converged)$$' -benchmem ./internal/core/ | \
	awk -v dense=$(KERNEL_GATE_DENSE_ALLOCS) -v conv=$(KERNEL_GATE_CONVERGED_ALLOCS) '{ print } \
		/^BenchmarkExploreDense/ { seenD = 1; if ($$7+0 > dense) { printf "kernel-gate: dense explore %d allocs/op exceeds baseline %d\n", $$7, dense; bad = 1 } } \
		/^BenchmarkExploreConverged\// { seenC++; if ($$7+0 > conv) { printf "kernel-gate: converged explore %d allocs/op exceeds baseline %d\n", $$7, conv; bad = 1 } } \
		/^FAIL/ { bad = 1 } \
		END { if (!seenD || seenC != 2) { print "kernel-gate: benchmarks did not run"; bad = 1 } exit bad }'
	$(GO) test -run='^$$' -bench='^Benchmark(PreprocessRefresh|ApproxQuery)$$' -benchmem ./internal/landmark/ | \
	awk -v one=$(KERNEL_GATE_REFRESH1_ALLOCS) -v many=$(KERNEL_GATE_REFRESH27_ALLOCS) -v query=$(KERNEL_GATE_QUERY_ALLOCS) '{ print } \
		/^BenchmarkPreprocessRefresh\/landmarks=1-/ { seen1 = 1; if ($$7+0 > one) { printf "kernel-gate: 1-landmark refresh %d allocs/op exceeds baseline %d\n", $$7, one; bad = 1 } } \
		/^BenchmarkPreprocessRefresh\/landmarks=27-/ { seen27 = 1; if ($$7+0 > many) { printf "kernel-gate: 27-landmark refresh %d allocs/op exceeds baseline %d\n", $$7, many; bad = 1 } } \
		/^BenchmarkApproxQuery-/ { seenQ = 1; if ($$7+0 > query) { printf "kernel-gate: landmark query %d allocs/op exceeds baseline %d\n", $$7, query; bad = 1 } } \
		/^FAIL/ { bad = 1 } \
		END { if (!seen1 || !seen27 || !seenQ) { print "kernel-gate: landmark benchmarks did not run"; bad = 1 } exit bad }'

# bench watches the hot path: the Explore microbenchmarks (allocs/op is
# the regression guard for the exploration loop; BenchmarkExploreConverged
# is one landmark's factored preprocessing at 2000 and 8000 nodes), the
# landmark refresh on a decay-weighted overlay engine, the landmark query
# on the 3000-node Twitter graph, the
# overlay-vs-rebuild delta apply, the per-update cost of Manager.Apply at batch sizes 1/4/16/64 on the
# streaming 8000-node manager, plus the evaluation-engine sweep and
# graph-delta comparison, which rewrite BENCH_eval.json and
# BENCH_graph.json.
bench:
	$(GO) test -bench=BenchmarkExplore -benchmem ./internal/core/
	$(GO) test -run='^$$' -bench='BenchmarkPreprocessRefresh|BenchmarkApproxQuery' -benchmem ./internal/landmark/
	$(GO) test -run='^$$' -bench=BenchmarkApplyBatch -benchmem ./internal/dynamic/
	$(GO) test -bench=BenchmarkWithoutEdges -benchmem ./internal/graph/
	$(GO) test -bench=BenchmarkLinkPrediction -benchmem ./internal/eval/
	$(GO) run ./cmd/trbench -exp bench-eval -bench-out BENCH_eval.json
	$(GO) run ./cmd/trbench -exp bench-graph -bench-out BENCH_graph.json

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

# bench-serve drives the load-managed serving path (coalescing, admission
# control, degradation) against the in-process /v1 handler at 1x/4x/16x
# closed-loop concurrency and rewrites BENCH_serve.json.
.PHONY: bench-serve
bench-serve:
	$(GO) run ./cmd/trbench -exp bench-serve -bench-out BENCH_serve.json

# bench-shard measures the sharded scatter/gather tier at 1/2/4
# partition workers and rewrites BENCH_shard.json: modeled deployment
# throughput from per-shard service times (gate: >= 2.5x at 4 shards)
# plus shed/degraded/5xx behaviour of the real HTTP stack at 16x. The
# flags pin the deployment the gate was tuned on: enough landmarks that
# the per-query fold mass (which partitions with the shard count)
# dominates the replicated exploration.
.PHONY: bench-shard
bench-shard:
	$(GO) run ./cmd/trbench -exp bench-shard -tw-nodes 16000 -landmarks 240 -store-topn 4000 -bench-out BENCH_shard.json

# bench-store measures the out-of-core storage tier and rewrites
# BENCH_store.json: TRG2 mmap cold-start against the legacy TRG1 heap
# load at a 1M-node trgen graph, WAL append throughput per sync policy,
# and the small-graph crash-recovery differential (snapshot + landmark
# store + WAL tail must serve bit-identical rankings).
.PHONY: bench-store
bench-store:
	$(GO) run ./cmd/trbench -exp bench-store -tw-nodes 1000000 -tw-avgout 8 -bench-out BENCH_store.json

# bench-stream drives timestamped churn through the streaming ingestion
# pipeline at increasing open-loop rates and rewrites BENCH_stream.json:
# Kendall-tau ranking staleness of the served landmark lists against a
# fresh recompute, priority versus round-robin scheduling at an equal
# refresh budget (gate: priority strictly fresher at every rate), and
# the zero-lost-updates conservation check (every offered update either
# durably applies or is explicitly rejected with backpressure).
.PHONY: bench-stream
bench-stream:
	$(GO) run ./cmd/trbench -exp bench-stream -bench-out BENCH_stream.json

# bench-subscribe drives the push-mode standing-query tier over a real
# HTTP listener and rewrites BENCH_subscribe.json: SSE push latency
# percentiles at open-loop update rates, the dirty-mark coalescing
# ratio, and the zero-lost-deltas gate under subscriber churn (no
# sequence gaps, no slow-consumer drops, and every consumer's
# reconstructed top-k equal to a fresh GET /v1/recommend).
.PHONY: bench-subscribe
bench-subscribe:
	$(GO) run ./cmd/trbench -exp bench-subscribe -bench-out BENCH_subscribe.json

# fuzz smoke-runs the equivalence fuzzers (random edge deltas must leave
# the overlay observationally identical to a full rebuild and the
# incrementally maintained authority table bit-identical to a recompute)
# and the storage-format fuzzers: arbitrary snapshot/landmark/WAL/TRG1 bytes must
# decode or error, never panic, index outside the mapping, or yield a
# forged batch.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzOverlayEquivalence -fuzztime=10s ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzApplyDeltaExact -fuzztime=10s ./internal/authority/
	$(GO) test -run='^$$' -fuzz=FuzzReadStore -fuzztime=10s ./internal/landmark/
	$(GO) test -run='^$$' -fuzz=FuzzOpenSnapshot -fuzztime=10s ./internal/store/
	$(GO) test -run='^$$' -fuzz=FuzzOpenLandmarks -fuzztime=10s ./internal/store/
	$(GO) test -run='^$$' -fuzz=FuzzScanWAL -fuzztime=10s ./internal/store/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeDecay -fuzztime=10s ./internal/store/

.PHONY: bench-all
bench-all:
	$(GO) test -bench=. -benchmem ./...
