# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all check build test test-short vet doccheck race fuzz-smoke bench bench-hot bench-scan bench-scan-smoke bench-harness-smoke experiments examples clean

all: check

# The full gate: compile everything, vet, enforce the docs (package
# comments, the README knob reference in both directions, no recipe naming a
# deleted target or binary), run the test suite, re-run the concurrency-heavy packages under
# the race detector, fuzz the LSH key codec, the top-k sweep, the serving
# engine's bucket sweep, the ρ-partial codec, the record frame, the ρ
# reducers' runs-apart certificate and the HTTP point decoder for five
# seconds each, smoke
# the pair kernels, the compact scan kernels and the key / index-build /
# served-query micro-benchmarks, and compile + smoke the benchmark harness
# (all five workloads, oracles checked).
check: build vet doccheck test race fuzz-smoke bench-scan-smoke bench-harness-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail on any package missing a package-level doc comment, any registered
# Conf* knob missing from README.md's configuration reference, any knob key
# in that reference that no code reads, or any doc citing a `make` target or
# cmd/ binary that no longer exists.
doccheck:
	$(GO) run ./cmd/doccheck

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The engines are the concurrency-heavy core; keep them race-clean. The
# kernels package rides along because concurrent reduce tasks and the serving
# engine call it from many goroutines, dfs/chaos for the heartbeat +
# re-replication machinery and its harness,
# serve/model for the query server's admission gate, shedding, and hot reload,
# fleet for the router's scatter-gather, hedging, and liveness prober.
# ./internal/mapreduce/... recursively covers the dag scheduler package,
# whose concurrent node dispatch is the newest race surface; ingest for the
# WAL-backed store's concurrent writers, query merges, and compaction swap;
# core for the jobs that run on those engines — its LSH reducers share pooled
# scratch (one KeyBuf per reduce call) across concurrent reduce tasks.
race:
	$(GO) test -race ./internal/mapreduce/... ./internal/mapreduce/rpcmr/... ./internal/kernels/... ./internal/points/... ./internal/dfs/... ./internal/chaos/... ./internal/serve/... ./internal/model/... ./internal/fleet/... ./internal/ingest/... ./internal/knnjoin/... ./internal/core/...

# Five seconds of native fuzzing per target (one -fuzz target per `go test`
# invocation). The LSH key codec faces bytes from outside the process: error
# or round-trip, never panic, never two spellings of one value. The top-k
# sweep prunes on a floating-point bound: differential against the flat
# scan on every axis, never a row evaluated twice, never a panic. The serving
# engine runs the same walk over its axis-ordered buckets with a one-bucket
# early exit: fuzz-chosen tiny models and queries, differential against
# gathering the bucket union and scanning all of it, masked and unmasked.
# The ρ-partial record of the pair-once LSH reducers is a hand-rolled varint
# format read back by another job, and it, the aggregated ρ value and the
# δ-job record carry the neighbour lists and layout masks LSH-DDP certifies
# δ̂ from: the codec's contract again, for all three. The record
# frame is the byte layout of spill run files, shuffle chunks and DFS parts:
# both decoders on arbitrary bytes — error or pairs that re-encode to the
# consumed prefix, the two in agreement, never a panic. The cutoff ρ
# reducers prune run pairs that lie d_c apart on a floating-point bound: two
# runs of arbitrary rows and a reach, and whenever they are called apart the
# cutoff walk over every pair across them counts and lists nothing. The
# point decoder behind every point-carrying HTTP handler faces request
# bodies: arbitrary bytes either refused with a 400 or points of the model's
# dimension, finite and in range, never a panic.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzKeyRoundTrip$$' -fuzztime 5s ./internal/lsh/
	$(GO) test -run '^$$' -fuzz '^FuzzTopKSweep$$' -fuzztime 5s ./internal/kernels/
	$(GO) test -run '^$$' -fuzz '^FuzzEngineSweep$$' -fuzztime 5s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzRhoPartialRoundTrip$$' -fuzztime 5s ./internal/points/
	$(GO) test -run '^$$' -fuzz '^FuzzFrameRoundTrip$$' -fuzztime 5s ./internal/mapreduce/
	$(GO) test -run '^$$' -fuzz '^FuzzRunsApart$$' -fuzztime 5s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePoints$$' -fuzztime 5s ./internal/serve/

bench:
	$(GO) test -bench=. -benchmem .

# Hot-path micro-benchmarks (dense kernels at dim 2/4/8 reporting ns/pair,
# shuffle sort, group decode, the rpcmr shuffle transport raw vs flate, LSH
# keys per point at dim 4/8, the serving index build full and fleet) with
# pinned benchtime/count so runs feed straight into benchstat:
#
#	make bench-hot > old.txt ... make bench-hot > new.txt
#	benchstat old.txt new.txt
BENCHTIME ?= 1s
BENCHCOUNT ?= 6
bench-hot:
	$(GO) test -bench 'Rho|Delta|Decode' -run xxx -benchmem \
		-benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./internal/kernels/ ./internal/points/
	$(GO) test -bench 'Sort|Shuffle' -run xxx -benchmem \
		-benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./internal/mapreduce/ ./internal/mapreduce/rpcmr/
	$(GO) test -bench 'Keys|NewEngine' -run xxx -benchmem \
		-benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./internal/lsh/ ./internal/serve/

# Scan-path micro-benchmarks: a float64 single-query NN full pass, NNRows
# over a sparse candidate list at f64 vs f32 vs q8 (the shape a served query
# scans), multi-query NNBatch, top-k selection (the `TopK` pattern
# matches both TopKScan, the flat batch, and TopKSweep, the kNN-join
# reducers' coordinate-ordered scan), and one served query end to end at the
# harness geometry (EngineAssign: ns and rows evaluated per query, share
# certified from one bucket, f64 and q8).
# End-to-end figures come from `bash bench/run.sh`.
bench-scan:
	$(GO) test -bench 'NNScan|NNRows|NNBatch|TopK' -run '^$$' -benchmem \
		-benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./internal/kernels/
	$(GO) test -bench 'EngineAssign' -run '^$$' -benchmem \
		-benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./internal/serve/

# One fast iteration per scan benchmark, per pair-kernel benchmark (the
# RhoKernel / RhoKernelGaussian / DeltaKernel subs `bench-hot` feeds to
# benchstat: naive and tiled at dim 2 / 4 / 8, and for ρ tiled+near, the
# LSH reducers' walk with its neighbour lists) and per key /
# index-build / served-query benchmark, for the check gate and CI: catches a
# pair kernel, a compact kernel, a key path or a sweep that stops compiling or
# panics on real shapes.
bench-scan-smoke:
	$(GO) test -bench 'NNScan|NNRows|NNBatch|TopK|RhoKernel|DeltaKernel' -run '^$$' -benchtime 1x ./internal/kernels/
	$(GO) test -bench 'Keys|NewEngine|EngineAssign' -run '^$$' -benchtime 1x ./internal/lsh/ ./internal/serve/

# bench/ is its own module, so `go test ./...` here never compiles it: vet
# it and run its unit tests plus the whole suite at -smoke scale (< 10 s), so
# a kernels/serve/core signature change cannot break bench/run.sh unnoticed.
bench-harness-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Regenerate every table/figure of the paper (several minutes at full scale).
experiments:
	$(GO) run ./cmd/dpbench -exp all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/compare
	$(GO) run ./examples/halo
	$(GO) run ./examples/decisiongraph
	$(GO) run ./examples/accuracy
	$(GO) run ./examples/distributed

clean:
	$(GO) clean ./...
