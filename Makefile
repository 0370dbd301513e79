GO ?= go

.PHONY: all ci fmt-check vet build test test-bench test-serial test-race test-cluster test-spill smoke convert-smoke bench-smoke bench-allocs bench bench-json bench-obs bench-cluster bench-load fuzz-smoke serve staticcheck trace-demo loc

# Benchmarks recorded in the persistent BENCH_PR.json trajectory (and gated
# by bench-smoke): the engine acceptance suite plus the graph-layer
# primitives its hot path leans on, the ruling-forest layer, and the
# instrumented (Obs) twins of the delivery and serving benchmarks so the
# trajectory records observability cost alongside raw cost, and the
# extension's (Δ+1)-class schedule (Linial + class reduction), its
# root-ball recoloring, the clique check that opens Theorem 1.3, the
# text edge-list parse of a serve-cold upload and the gps7 peel coloring
# serve-cold runs.
BENCH_JSON_PAT = BenchmarkSparseListColor|BenchmarkCollectBallsSync|BenchmarkRunSyncDelivery|BenchmarkHappySet|BenchmarkBlocks|BenchmarkGallai|BenchmarkBFS|BenchmarkDegeneracy|BenchmarkGirth|BenchmarkDegreeListColor|BenchmarkServeThroughput$$|BenchmarkServeThroughputObs$$|BenchmarkServeThroughputCluster$$|BenchmarkServeThroughputForward$$|BenchmarkServeThroughputSpill$$|BenchmarkClusterRoute|BenchmarkGraphLoad|BenchmarkRulingCompute|BenchmarkDegPlusOne|BenchmarkRootBallRecolor|BenchmarkFindCliqueDPlus1|BenchmarkReadEdgeList|BenchmarkPeelColor
BENCH_JSON_PKGS = . ./internal/graph ./internal/seqcolor ./internal/ruling ./internal/reduce ./internal/core ./internal/gps ./internal/serve ./internal/cluster

all: ci

ci: fmt-check vet build test test-bench test-serial test-race test-cluster test-spill smoke convert-smoke bench-smoke bench-allocs fuzz-smoke

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The benchmark harness is a nested module (distcolor/bench), which the
# root-module ./... patterns skip: vet and test it from its own directory.
test-bench:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The message plane must be bit-identical at any parallelism; run the LOCAL
# engine suite pinned to a single worker to prove the degenerate case
# (delivery, compaction and output collection all collapse onto one shard).
test-serial:
	GOMAXPROCS=1 $(GO) test -count=1 ./internal/local/...

# Race-detector pass over the concurrent packages: the serving layer (job
# scheduler, LRU store, coalescing, cancellation), the metrics registry
# (registration concurrent with scrapes) and the LOCAL engine's sharded
# message plane, plus the root-package cancellation/registry,
# trace/progress, cross-GOMAXPROCS determinism and per-call allocation
# tests, the caller-held per-layer scratch (one traversal rebound to
# graphs of different sizes, the ruling, reduction and root-ball
# workspaces) and its allocation tests, the gps7 peel coloring
# (concurrent PeelColor calls on one shared graph, as on a resident
# graph) and the block-parallel text ingest (ReadEdgeList's tests and fuzz
# seeds run on 1, 2 and 4 Ps).
test-race:
	$(GO) test -race ./internal/serve/... ./internal/obs/... ./internal/local/... ./internal/cluster/... ./internal/gps
	$(GO) test -race -run 'Cancel|Registry|Deadline|Progress|Trace|Luby|Deterministic|ProperColoring|Golden|Allocates' .
	$(GO) test -race -run 'Traversal|Allocates|Linial|DegPlusOne|Ruling|ReadEdgeList' ./internal/graph ./internal/reduce ./internal/ruling
	$(GO) test -race -run 'RootBall|Workspace' ./internal/core ./internal/seqcolor

# Clustering suite under the race detector: the ring/quota/health unit
# tests plus the in-process 3-replica harness (routing determinism,
# fleet-wide coalescing, forwarded-trace continuity, failover, quota
# isolation).
test-cluster:
	$(GO) test -race -count=1 ./internal/cluster/...
	$(GO) test -race -count=1 -run 'TestCluster' ./internal/serve

# Out-of-core suite under the race detector: .dcsr round-trip/rejection and
# external-memory conversion at the graph layer, spill/readmit lifecycle and
# the byte-identical end-to-end acceptance at the serve layer.
test-spill:
	$(GO) test -race -count=1 -run 'DCSR|Convert|Spill|BinaryColors|MirrorWeight' ./internal/graph ./internal/serve

# Registry-driven CLI smoke: runs every distcolor.Algorithms() entry on its
# tiny Algorithm.Smoke graph through the same wire path the server uses.
smoke:
	$(GO) run ./cmd/distcolor -smoke

# Binary-format round trip through the real binaries: convert a generated
# graph to .dcsr with a deliberately tiny scatter budget, load and color it
# through the CLI's sniffing loader, then drive a spill-enabled server
# end-to-end over HTTP (x-dcsr upload, job, binary colors download).
convert-smoke:
	rm -rf bin/convert-smoke && mkdir -p bin/convert-smoke
	$(GO) run ./cmd/distcolor convert -gen apollonian:3000 -seed 7 -out bin/convert-smoke/g.dcsr -verify
	$(GO) run ./cmd/distcolor -load bin/convert-smoke/g.dcsr -algo planar6 -o bin/convert-smoke/colors.bin
	$(GO) build -o bin/convert-smoke/distcolor-serve ./cmd/distcolor-serve
	python3 scripts/convert_smoke.py bin/convert-smoke

# Static analysis (CI runs this via the staticcheck action; locally the
# module is fetched on demand, so network access is required once).
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@2025.1 ./...

# Build and launch the HTTP serving layer on :8080 (see README "Serving").
serve:
	$(GO) build -o bin/distcolor-serve ./cmd/distcolor-serve
	./bin/distcolor-serve -addr :8080

# Quick benchmark pass over the engine acceptance benchmarks, gated against
# the committed BENCH_PR.json baseline: fails when any shared benchmark's
# ns/op exceeds 1.5× its committed value. The wide tolerance absorbs
# machine-to-machine and scheduler noise at 3 iterations; refresh the
# baseline with `make bench-json` when a real perf change lands.
bench-smoke:
	$(GO) test -run xxx -benchtime 3x -benchmem \
		-bench 'BenchmarkSparseListColor/.*/n1e[34]$$|BenchmarkCollectBallsSync/grid20x20|BenchmarkRunSyncDelivery' . \
		| $(GO) run ./cmd/benchjson -check BENCH_PR.json -tolerance 1.5

# Allocation gate over the Theorem 1.1 path and the extension's root-ball
# recoloring on it, the block decomposition it leans on, the ruling
# forest, the happy-set classification, the (Δ+1)-class schedule, the
# clique check, the text edge-list parse (a return to one slice per
# vertex row costs ~10^5 allocs/op there) and the gps7 peel coloring (a
# return to per-layer append buckets costs ~10^3): fails when a benchmark's allocs/op exceeds 1.10×
# its committed BENCH_PR.json value (growth under benchjson's small
# absolute slack is forgiven) or has no committed value. allocs/op barely moves between machines or minutes, so unlike
# bench-smoke's ns/op this gate does not need a wide tolerance; -tolerance 0
# leaves ns/op to bench-smoke.
bench-allocs:
	$(GO) test -run xxx -benchtime 3x -benchmem \
		-bench 'BenchmarkDegreeListColor|BenchmarkBlocks|BenchmarkGallai|BenchmarkSparseListColor/.*/n1e[34]$$|BenchmarkRulingCompute|BenchmarkHappySet|BenchmarkDegPlusOne|BenchmarkRootBallRecolor|BenchmarkFindCliqueDPlus1|BenchmarkReadEdgeList|BenchmarkPeelColor' \
		. ./internal/graph ./internal/seqcolor ./internal/ruling ./internal/reduce ./internal/core ./internal/gps \
		| $(GO) run ./cmd/benchjson -check BENCH_PR.json -tolerance 0 -allocs-tolerance 1.10

# Regenerate the persistent benchmark trajectory BENCH_PR.json (committed;
# CI re-emits it as an artifact on every run so each PR lands a point on
# the perf trajectory — see README "Performance").
bench-json:
	$(GO) test -run xxx -benchtime 3x -benchmem -bench '$(BENCH_JSON_PAT)' $(BENCH_JSON_PKGS) \
		| $(GO) run ./cmd/benchjson -out BENCH_PR.json

# Instrumentation-overhead guard: run the hot benchmarks in their no-op and
# instrumented (Obs) variants in one pass, keep the min of 3 repetitions of
# each, and fail when an Obs twin exceeds its no-op twin by more than 5%.
# The serve Obs twin runs the full tracing path — traceparent parse and
# injection, root + store + queue + run + engine-phase spans into the
# flight ring, histogram exemplars — so span instrumentation is held to
# the same ≤5% bound as the metrics were. No committed baseline involved —
# both sides run on the same machine in the same invocation, so the gate
# is noise-robust and portable.
bench-obs:
	{ $(GO) test -run xxx -count 3 -benchtime 20x -bench 'BenchmarkRunSyncDelivery(Obs)?$$' . ; \
	  $(GO) test -run xxx -count 3 -benchtime 100x -bench 'BenchmarkServeThroughput(Obs)?$$' ./internal/serve ; } \
	| $(GO) run ./cmd/benchjson -overhead Obs -overhead-tolerance 1.05

# Clustering-overhead guard, same shape as bench-obs: the clustered serving
# benchmark (three-member ring, graph owned by self, so the routing decision
# is paid on every request but nothing forwards) must stay within 10% of the
# standalone twin. Both sides run in one invocation, so the gate needs no
# committed baseline.
bench-cluster:
	$(GO) test -run xxx -count 3 -benchtime 100x -bench 'BenchmarkServeThroughput(Cluster)?$$' ./internal/serve \
		| $(GO) run ./cmd/benchjson -overhead Cluster -overhead-tolerance 1.10

# Zero-copy load gate: at n=10⁶ the mmap'd .dcsr open must be at least 10×
# faster than the text edge-list parse (it is usually orders of magnitude
# faster — the gate is deliberately loose so slow CI disks pass). -faster
# errors out if either benchmark goes missing, so a rename cannot quietly
# disable the gate.
bench-load:
	$(GO) test -run xxx -count 3 -benchtime 3x -bench 'BenchmarkGraphLoad' ./internal/graph \
		| $(GO) run ./cmd/benchjson -faster 'BenchmarkGraphLoad/dcsr-mmap<BenchmarkGraphLoad/text' -speedup 10

# Run one real job and emit a viewable span trace: open trace-demo.json
# as-is in https://ui.perfetto.dev (or chrome://tracing). The same span
# tree is what the server records per request (GET /v1/traces/{id}).
trace-demo:
	$(GO) run ./cmd/distcolor -gen apollonian:20000 -algo planar6 -spans trace-demo.json
	@echo "wrote trace-demo.json — open it in https://ui.perfetto.dev"

# Short native-fuzz smoke over the two graph decoders — the text edge-list
# parser and the binary .dcsr reader — and over the server's one graph
# entry point, POST /v1/graphs, across every upload kind (the committed
# seed corpora always run in plain `go test`; this explores beyond them).
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzReadEdgeList -fuzztime 15s ./internal/graph
	$(GO) test -run xxx -fuzz FuzzReadDCSR -fuzztime 15s ./internal/graph
	$(GO) test -run xxx -fuzz FuzzUploadGraph -fuzztime 15s ./internal/serve

# Full engine benchmark sweep (slow; use benchstat across commits).
bench:
	$(GO) test -run xxx -bench 'BenchmarkSparseListColor|BenchmarkCollectBallsSync|BenchmarkRunSyncDelivery' -benchtime 3x .

# Non-test Go lines per package directory (bench/, its own module, left
# out): the measure the "less code" ROADMAP item is counted in.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -exec wc -l {} + \
		| awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%6d %s\n", n[d], d; printf "%6d total\n", t }' | sort -k2
