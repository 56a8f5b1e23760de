# Build/test entry points mirroring .github/workflows/ci.yml — `make ci`
# runs locally exactly what CI gates on.

GO ?= go

# Benchmarks gated by the perf-trajectory trend (comma-separated
# name-prefix allowlist for scripts/bench_trend.sh) and the go test
# -bench pattern + packages that produce them.
BENCH_GATED = BenchmarkParallelPeel,BenchmarkMapReducePeel,BenchmarkMapReduceCheckpoint,BenchmarkMapReduceSpill,BenchmarkFileStreamPeel,BenchmarkBinaryStreamPeel,BenchmarkConvert,BenchmarkCore,BenchmarkServe,BenchmarkDynamicChurn,BenchmarkDynamicRecompute
# Benchmarks additionally gated on allocs_per_op (the disk-peel scan
# paths are expected to stay allocation-flat as workers scale, and the
# happy-path MapReduce peel must not grow allocations from the
# fault-injection/speculation/checkpoint plumbing when no faults are
# configured).
BENCH_ALLOC_GATED = BenchmarkFileStreamPeel,BenchmarkBinaryStreamPeel,BenchmarkMapReducePeel
BENCH_PATTERN = BenchmarkTable1|BenchmarkParallelPeel|BenchmarkMapReducePeel|BenchmarkMapReduceCheckpoint|BenchmarkMapReduceSpill|BenchmarkFileStreamPeel|BenchmarkBinaryStreamPeel|BenchmarkConvert|BenchmarkCore|BenchmarkServe|BenchmarkDynamic
BENCH_PKGS = . ./internal/core ./internal/serve

.PHONY: build test race fuzz-smoke bench bench-core bench-mr bench-json bench-trend fmt fmt-check vet api-check api-snapshot serve-smoke ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race job exercises the parallel peeling engine (internal/par,
# the sharded core scans, the striped stream counters and the stream
# scan's residual capture, whose shards claim arena chunks from one
# cursor) and MapReduce's speculative backups, which race the delayed
# original, then the root-package smokes CI runs: worker-count
# determinism plus the cross-runtime trace identity (the sharded scan
# at workers=3), and the out-of-core file scans (residual capture
# included, at several workers) and spilling MapReduce. CI's race job
# runs the same three steps.
race:
	$(GO) test -race ./internal/...
	$(GO) test -race -run 'TestParallel|TestTraceIdentity' .
	$(GO) test -race -run 'TestOutOfCore' .

# Fuzz the untrusted-input parsers for a short while each: the text
# edge-list loader must match the sequential reader and the reference
# parse, the BSG1 source's scans must agree across shard counts and
# every block must match the reference block decoder, and the text
# shards' blocks must match the reference line-by-line parse with and
# without weights, on arbitrary bytes. Freeze must match the sort-based reference build on arbitrary
# node counts, edges and weights, and reject bad ones with an error.
# Plain `go test` replays the checked-in seed corpora.
# FuzzFileShard's corpus holds a line longer than the 64 KiB read
# buffer; minimizing a mutant of it would take the default 60 s, so its
# minimization is capped at 2 s to leave the run for fuzzing.
# FuzzPeelParity holds the peel engines (Undirected and AtLeastK, which
# share one pass loop and one sweep, with their push/pull choice and
# AtLeastK's (degree, id) quota cut, UndirectedWeighted with its CSR
# compaction, and Directed on the same graph with its edges oriented)
# to the reference engines at workers 1-3 on generated graphs above the
# compaction floor. An input near ε = 0 peels one node per AtLeastK
# pass, and the reference sorts its candidates on every pass, so it
# takes seconds; its minimization is capped the same way.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadUndirectedFile$$' -fuzztime 20s ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzFreeze$$' -fuzztime 20s ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzBinarySource$$' -fuzztime 20s ./internal/edgeio
	$(GO) test -run '^$$' -fuzz '^FuzzFileShard$$' -fuzztime 20s -fuzzminimizetime 2s ./internal/edgeio
	$(GO) test -run '^$$' -fuzz '^FuzzPeelParity$$' -fuzztime 20s -fuzzminimizetime 2s ./internal/core

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

# The peel-core microbenchmarks: pass throughput on the 2M-edge RMAT
# sweep, whole runs at ε=0 and ε=4 with their push and pull pass
# counts, Algorithm 2 with k=1000 at ε=0.05 and ε=0.5, whose passes
# each cut a quota by linear-time selection (BenchmarkCoreAtLeastK),
# the per-entry cost of each decrement direction in isolation
# (BenchmarkCorePushVsPull), and Algorithm 3 on the directed RMAT graph
# (BenchmarkCoreDirected). BenchmarkCoreAtLeastK and
# BenchmarkCoreDirected run at one worker and at GOMAXPROCS; the
# directed runs are at c=1 and the δ=2 sweep over c.
bench-core:
	$(GO) test -bench='BenchmarkCore' -benchtime=1x -run='^$$' ./internal/core

# The MapReduce and out-of-core benchmarks: the cluster-shape sweep,
# the checkpoint sweep, the spill-budget sweep, and the sharded
# disk-stream sweep — gated against the committed baseline like the
# peel sweeps.
bench-mr:
	$(GO) test -bench='BenchmarkMapReducePeel|BenchmarkMapReduceCheckpoint|BenchmarkMapReduceSpill|BenchmarkFileStreamPeel|BenchmarkBinaryStreamPeel|BenchmarkConvert' -benchtime=1x -count=3 -run='^$$' . | tee /dev/stderr | scripts/bench_to_json.sh > BENCH_mr_fresh.json
	scripts/bench_trend.sh BENCH_ci.json BENCH_mr_fresh.json 'BenchmarkMapReducePeel,BenchmarkMapReduceCheckpoint,BenchmarkMapReduceSpill,BenchmarkFileStreamPeel,BenchmarkBinaryStreamPeel,BenchmarkConvert' 1.30 '$(BENCH_ALLOC_GATED)' 1.50
	@rm -f BENCH_mr_fresh.json

# Emit BENCH_ci.json (benchmark name -> ns/op + allocs/op) from the
# bench-smoke run (same pattern as CI's bench-smoke job); CI archives
# this as the perf data point for the commit.
bench-json:
	$(GO) test -bench='$(BENCH_PATTERN)' -benchtime=1x -count=3 -run='^$$' $(BENCH_PKGS) | scripts/bench_to_json.sh > BENCH_ci.json
	@cat BENCH_ci.json

# Perf-trajectory gate mirroring CI: run the bench smoke (min of 3
# runs) against the committed BENCH_ci.json baseline and fail on a >30%
# regression of any allowlisted sweep. The baseline is
# machine-specific; on hardware slower than the recorded cpu, refresh
# it first with `make bench-json`.
bench-trend:
	$(GO) test -bench='$(BENCH_PATTERN)' -benchtime=1x -count=3 -run='^$$' $(BENCH_PKGS) | scripts/bench_to_json.sh > BENCH_fresh.json
	scripts/bench_trend.sh BENCH_ci.json BENCH_fresh.json '$(BENCH_GATED)' 1.30 '$(BENCH_ALLOC_GATED)' 1.50
	@rm -f BENCH_fresh.json

# Public-API gate: fail when `go doc -all .` drifts from the committed
# API.txt snapshot; refresh the snapshot deliberately with api-snapshot.
api-check:
	scripts/api_surface.sh

api-snapshot:
	$(GO) doc -all . > API.txt
	@echo "API.txt refreshed"

# Boot the densestd daemon on a loopback port and check that one HTTP
# solve per objective x backend is bit-identical to the in-process
# Solve — the service-parity acceptance gate.
serve-smoke:
	$(GO) run ./cmd/densestd -smoke

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# perfbench is its own module, so ./... skips it; vet it on its own so
# an API change that breaks the benchmark fails here. The Windows vet
# compiles the tree for a non-Unix platform, which no other step
# builds.
vet:
	$(GO) vet ./...
	GOOS=windows $(GO) vet ./...
	$(GO) vet -C perfbench ./...

# bench-trend mirrors CI's gate; refresh the committed baseline
# deliberately with `make bench-json`.
ci: build vet fmt-check api-check test race fuzz-smoke serve-smoke bench-trend
