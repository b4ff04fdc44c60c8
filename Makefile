# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all check fmt build test test-short vet doccheck race fuzz-smoke bench bench-hot bench-scan bench-scan-smoke bench-harness-smoke experiments examples clean

all: check

# The full gate: gofmt, compile everything, vet, enforce the docs (package
# comments, the README knob reference in both directions, no recipe naming a
# deleted target, binary or flag), run the test suite, re-run the concurrency-heavy packages under
# the race detector, fuzz the LSH key codec, the box-tree top-k scan and its
# row-filtered walk, the serving engine's tree walk over the bucket union,
# the ρ-partial codec, the point record, the
# record frame, the
# ρ reducers' runs-apart certificate and the ρ ship plan built on it, the
# HTTP point decoder, the shuffle
# fetcher's response decoder, the WAL record decoder and segment replay, the
# ingest delta's box-tree forest, the compact
# shortlist's distance cap, the compact filter in front of the exact top-k,
# the kNN-join's records and box table, the
# model artifact's section walk, the Conf vector list, the fleet manifest
# reader and a fleet shard's /fleet/assign body for five seconds each, smoke
# the pair kernels, the compact scan kernels and the key / index-build /
# served-query micro-benchmarks, compile + smoke the benchmark harness
# (all five workloads, oracles checked), and run the example program on
# both engines.
check: fmt build vet doccheck test race fuzz-smoke bench-scan-smoke bench-harness-smoke examples

# Fail when gofmt would rewrite any Go file, listing them.
fmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo "gofmt needed:"; echo "$$files"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail on any package missing a package-level doc comment, any registered
# Conf* knob missing from README.md's configuration reference, any knob key
# in that reference that no code reads, any doc citing a `make` target,
# cmd/ binary or command-line flag that no longer exists, or any declaration
# under internal/ that no non-test code outside bench/ refers to and that
# doccheck's uncalled list does not name with a reason, any DESIGN.md section
# a Go comment or doc cites by title that DESIGN.md has no heading or run-in
# label for, or a DESIGN.md past its pinned line, byte or "PR n" mention
# count.
doccheck:
	$(GO) run ./cmd/doccheck

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The engines are the concurrency-heavy core; keep them race-clean. The
# kernels package rides along because concurrent reduce tasks and the serving
# engine call it from many goroutines, chaos for the kill/restart harness the
# worker and fleet drills run from hook goroutines,
# serve/model for the query server's admission gate, shedding, and hot reload,
# fleet for the router's scatter-gather, hedging, and liveness prober.
# ./internal/mapreduce/... recursively covers rpcmr and the dag package, whose
# mutex-guarded job ledger a caller may read while a job is recorded into it;
# ingest for the WAL-backed store's concurrent writers, query merges, and
# compaction swap;
# core for the jobs that run on those engines — its LSH reducers share pooled
# scratch (one KeyBuf per reduce call) across concurrent reduce tasks — and
# for the ρ ship plan, whose goroutines read one shared RowKeys array, each
# grouping a layout in its own buffers; lsh for the bucket-index build,
# which hashes its row chunks on their own goroutines into one shared
# RowKeys array; par for the chunked For every parallel build runs on;
# eddpc for the comparator's reducers, which run as concurrent tasks on the
# local engine (≈ 4 s).
race:
	$(GO) test -race ./internal/mapreduce/... ./internal/kernels/... ./internal/points/... ./internal/chaos/... ./internal/serve/... ./internal/model/... ./internal/fleet/... ./internal/ingest/... ./internal/knnjoin/... ./internal/core/... ./internal/lsh/... ./internal/par/... ./internal/eddpc/...

# Five seconds of native fuzzing per target (one -fuzz target per `go test`
# invocation). The LSH key codec faces bytes from outside the process: error
# or round-trip, never panic, never two spellings of one value. The
# box-tree top-k scan prunes on a floating-point box bound: differential
# against the flat scan on a checked tree, never a row evaluated twice,
# never a panic; and, walked through a row filter as the serving engine
# walks it, against TopKRows over exactly the admitted rows, plain and
# through the q8 filter, never a row offered twice. The serving engine
# walks one box tree over all its rows, admitting its buckets' rows, with a
# one-bucket early exit: fuzz-chosen tiny models and queries, differential
# against gathering the bucket union and scanning all of it, masked and
# unmasked.
# The ρ-partial record of the pair-once LSH reducers is a hand-rolled varint
# format read back by another job, and it, the aggregated ρ value and the
# δ-job record carry the neighbour lists and layout masks LSH-DDP certifies
# δ̂ from: the codec's contract again, for all three. The point record
# every job ships — a varint ID and dim, then the coordinates — and the rho
# point and ship mask after it face the same: the scalar and the matrix
# decoders accept the same bytes and read the same point, what they accept
# re-encodes to the bytes consumed, and a dim the bytes do not back errors
# before it is allocated. The record
# frame is the byte layout of shuffle chunks and model sections:
# its decoder on arbitrary bytes — error or pairs that re-encode to the
# consumed prefix, never a panic. The cutoff ρ
# reducers prune run pairs that lie d_c apart on a floating-point bound: two
# runs of arbitrary rows and a reach, and whenever they are called apart the
# cutoff walk over every pair across them counts and lists nothing; the
# driver's ρ ship plan leaves out the runs that keep no pair: a run it
# leaves out has no pair across it that counts or is listed, and the walk
# over the rows it keeps credits and lists what the walk over all does. The
# point decoder behind every point-carrying HTTP handler faces request
# bodies: arbitrary bytes either refused with a 400 or points of the model's
# dimension, finite and in range, never a panic. The shuffle fetcher reads a
# peer's raw-TCP response — status, chunk headers, error message: arbitrary
# bytes give an error or exactly the pairs the chunks encode, never a panic,
# and a length the bytes do not back never costs its allocation. The WAL
# record decoder faces whatever a segment holds after bit rot: arbitrary
# payloads give an error or a record that re-encodes to exactly the payload,
# never a panic — a count × dim that overflows included.
# A WAL segment's framing faces the same: arbitrary bytes replayed as the
# final segment and as an earlier one give an error, or records that
# re-encode to exactly the bytes replay kept; only the final segment is
# ever truncated, and then to exactly those bytes. An ingest store's
# delta forest, grown and compacted in an arbitrary order over tie- and
# duplicate-heavy rows, reads and folds exactly what a full scan of the
# delta reads and folds: the lowest-index nearest row under each read's
# cap, every row strictly within d_c. A fleet shard caps
# its compact shortlist at the best distance another shard already found:
# on arbitrary rows, query and bound, at f32 and q8, every row within the
# bound survives the cap, the capped scan's answer is the nearest row within
# the bound, and nothing panics. Every compact serving walk computes exact
# distances only for rows its q8 distance lets through: on arbitrary
# rows (NaN, ±Inf, huge and tie-heavy coordinates), query and cap, fed in
# arbitrary pieces, the capped top-1 is exactly the float64 scan's, from no
# more exact distances than rows, never a panic. The kNN-join's records — bucket query,
# result — and the box tables its jobs filter base copies by face
# arbitrary bytes: error or exactly the input re-encoded (a ragged box, a
# truncated or repeated key is an error); the candidates map errors or
# accounts for the record — emits it, or drops base copies outside every
# routed box — never both; the exact map at 3 groups errors or sends a base
# record to all 3 and a query to 1, with a box table sends a base record to
# the groups whose boxes hold it and drops it from the rest, and at 0 groups
# always errors; never a panic. A
# model artifact's body, under a recomputed header and checksum, reaches
# the section walk: error, or a valid model that round-trips through
# Encode / Decode unchanged — a ragged or repeated section is an error. The
# vector list a job's Conf ships (EDDPC's pivots, K-means' centroids) faces
# arbitrary bytes, as its binary body and as the Conf string: error, or a
# list that re-encodes to the same string — a count the bytes cannot hold
# or a trailing byte is an error, never a panic. A router reads fleet.json
# from disk: arbitrary bytes give an error, or a placement whose every owner
# lies in [0, shards) — a ring or layouts too large to build are an error,
# never a panic or an unbounded allocation. A fleet shard with ingested
# rows faces arbitrary /fleet/assign bodies: a refusal or a 200 with one
# result per point, never a 500, and a bounded query answers at a squared
# distance that ties or beats its bound — delta rows included — or not at all.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzKeyRoundTrip$$' -fuzztime 5s ./internal/lsh/
	$(GO) test -run '^$$' -fuzz '^FuzzTopKLeaves$$' -fuzztime 5s ./internal/kernels/
	$(GO) test -run '^$$' -fuzz '^FuzzTopKLeavesFilter$$' -fuzztime 5s ./internal/kernels/
	$(GO) test -run '^$$' -fuzz '^FuzzEngineSweep$$' -fuzztime 5s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzRhoPartialRoundTrip$$' -fuzztime 5s ./internal/points/
	$(GO) test -run '^$$' -fuzz '^FuzzPointRecords$$' -fuzztime 5s ./internal/points/
	$(GO) test -run '^$$' -fuzz '^FuzzFrameRoundTrip$$' -fuzztime 5s ./internal/mapreduce/
	$(GO) test -run '^$$' -fuzz '^FuzzRunsApart$$' -fuzztime 5s ./internal/core/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePoints$$' -fuzztime 5s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzShuffleStream$$' -fuzztime 5s ./internal/mapreduce/rpcmr/
	$(GO) test -run '^$$' -fuzz '^FuzzWALRecord$$' -fuzztime 5s ./internal/ingest/
	$(GO) test -run '^$$' -fuzz '^FuzzWALSegment$$' -fuzztime 5s ./internal/ingest/
	$(GO) test -run '^$$' -fuzz '^FuzzDeltaForest$$' -fuzztime 5s ./internal/ingest/
	$(GO) test -run '^$$' -fuzz '^FuzzShortlistCap$$' -fuzztime 5s ./internal/kernels/
	$(GO) test -run '^$$' -fuzz '^FuzzTopKCompact$$' -fuzztime 5s ./internal/kernels/
	$(GO) test -run '^$$' -fuzz '^FuzzKnnRecords$$' -fuzztime 5s ./internal/knnjoin/
	$(GO) test -run '^$$' -fuzz '^FuzzModelDecode$$' -fuzztime 5s ./internal/model/
	$(GO) test -run '^$$' -fuzz '^FuzzVectorsRoundTrip$$' -fuzztime 5s ./internal/points/
	$(GO) test -run '^$$' -fuzz '^FuzzManifest$$' -fuzztime 5s ./internal/fleet/
	$(GO) test -run '^$$' -fuzz '^FuzzFleetAssignBody$$' -fuzztime 5s ./internal/fleet/

bench:
	$(GO) test -bench=. -benchmem .

# Hot-path micro-benchmarks (dense kernels at dim 2/4/8 reporting ns/pair,
# shuffle sort, the aggregations' input grouping (BenchmarkSortByIDKey at
# the ρ̂ aggregation's 130 006 records), group decode, the rpcmr shuffle
# transport, LSH keys per point at dim 4/8, the serving index build full and fleet on
# 50 000- and 200 000-row models (the latter serve-read's shape), the
# fleet partitioner on 50 000- and 200 000-row models over 4 shards,
# BenchmarkWriteFile, the model artifact streamed to disk at the 200 000-row
# serving shape — bytes allocated per write, not per artifact byte — and
# BenchmarkJoin, the kNN-join at a tenth of the batch-knnjoin harness shape
# on the local engine — shuffle bytes and distances per query, base copies
# per base point — and BenchmarkLSHDDP, one RunLSHDDP at a tenth of the
# batch-lshddp harness shape on the local engine — allocations per run,
# distances per point — and BenchmarkPlanRho, the driver's ρ ship plan at
# the full batch-lshddp shape — and BenchmarkStoreIngest, one point per ingest call
# at the 200 000-row serving shape — base rows folded and allocations per
# point) with pinned benchtime/count so runs feed straight into
# benchstat:
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
	$(GO) test -bench 'Keys|NewEngine|Partition|WriteFile|Join|LSHDDP|PlanRho|StoreIngest' -run xxx -benchmem \
		-benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./internal/lsh/ ./internal/serve/ ./internal/fleet/ ./internal/model/ ./internal/knnjoin/ ./internal/core/ ./internal/ingest/

# Scan-path micro-benchmarks: a float64 single-query k = 1 full pass
# (NNScan), NNRows over a sparse candidate list at f64 vs f32 vs q8 (the
# shape a served query scans), the multi-query k = 1 batch the engine's
# exact fallback runs (NNBatch), top-k selection (the `TopK` pattern
# matches both TopKScan, the flat batch, and TopKLeaves, the kNN-join
# reducers' box-tree scan, with rows and box bounds per query), and one
# served query end to end at the
# harness geometry (EngineAssign: ns, rows evaluated, box bounds, rows the
# bucket filter tested and exact distances the q8 filter let through per
# query, share certified from one bucket, f64 and q8).
# End-to-end figures come from `bash bench/run.sh`.
bench-scan:
	$(GO) test -bench 'NNScan|NNRows|NNBatch|TopK' -run '^$$' -benchmem \
		-benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./internal/kernels/
	$(GO) test -bench 'EngineAssign' -run '^$$' -benchmem \
		-benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./internal/serve/

# One fast iteration per scan benchmark, per pair-kernel benchmark (the
# RhoKernel / DeltaKernel subs `bench-hot` feeds to
# benchstat: naive and tiled at dim 2 / 4 / 8, and for ρ tiled+near, the
# LSH reducers' walk with its neighbour lists) and per key /
# index-build / served-query / partitioner / artifact-write
# (BenchmarkWriteFile) / kNN-join (BenchmarkJoin) / LSH-DDP pipeline
# (BenchmarkLSHDDP) / ρ ship plan (BenchmarkPlanRho) / write-path
# (BenchmarkStoreIngest) benchmark, for the check gate and CI: catches a
# pair kernel, a compact kernel, a key path, the box tree, the fleet
# partitioner, the model writer, the join, the LSH-DDP driver, its ship
# plan or the ingest fold that stops compiling or panics on real shapes.
bench-scan-smoke:
	$(GO) test -bench 'NNScan|NNRows|NNBatch|TopK|RhoKernel|DeltaKernel' -run '^$$' -benchtime 1x ./internal/kernels/
	$(GO) test -bench 'Keys|NewEngine|EngineAssign|Partition|WriteFile|Join|LSHDDP|PlanRho|StoreIngest' -run '^$$' -benchtime 1x ./internal/lsh/ ./internal/serve/ ./internal/fleet/ ./internal/model/ ./internal/knnjoin/ ./internal/core/ ./internal/ingest/

# bench/ is its own module, so `go test ./...` here never compiles it: vet
# it and run its unit tests plus the whole suite at -smoke scale (< 10 s), so
# a kernels/serve/core signature change cannot break bench/run.sh unnoticed.
bench-harness-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Regenerate every table/figure of the paper (several minutes at full scale).
experiments:
	$(GO) run ./cmd/ddp exp

# The example program on the local engine, then on an in-process 3-worker
# rpcmr cluster, each run to completion (≈ 1 s); an error or a trace that
# disagrees with the shuffle counter fails the target.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/quickstart -distributed

clean:
	$(GO) clean ./...
