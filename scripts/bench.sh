#!/usr/bin/env bash
# bench.sh — run the named Go benchmarks (stage-1 kernel microbenchmarks,
# collectives, ingest and partition, out-of-core, merge, macro and serving)
# and print the raw `go test -bench` output. These are development probes;
# the basis of a performance claim is `bash benchmark/run.sh`
# (BENCHMARK.json). Override the iteration counts for a quick smoke:
#
#   scripts/bench.sh
#   KERNEL_TIME=5x MACRO_TIME=1x COMM_TIME=10x scripts/bench.sh
set -euo pipefail
cd "$(dirname "$0")/.."

KERNEL_TIME="${KERNEL_TIME:-50x}"
MACRO_TIME="${MACRO_TIME:-3x}"
COMM_TIME="${COMM_TIME:-100x}"
INGEST_TIME="${INGEST_TIME:-5x}"
OOCORE_TIME="${OOCORE_TIME:-1x}"

echo "== kernel microbenchmarks (-benchtime $KERNEL_TIME) ==" >&2
# scripts/check.sh names each kernel benchmark, so a rename or deletion fails
# its discovery guard.
go test -run '^$' -bench '^Benchmark(Kernel|Modularity)' -benchtime "$KERNEL_TIME" -benchmem ./internal/core/

echo "== collective engine benchmarks (-benchtime $COMM_TIME) ==" >&2
# BenchmarkAlltoallv's p=16/64/256 rows time the in-process world as the
# rank count grows; Seq against Overlap is what posting every send before
# the first receive buys under 1 ms injected delay.
go test -run '^$' \
    -bench '^(BenchmarkAlltoallv|BenchmarkAlltoallvSeq|BenchmarkAlltoallvOverlap)$' \
    -benchtime "$COMM_TIME" -benchmem ./internal/comm/

# The .sbin decode and partitioning run on up to GOMAXPROCS goroutines;
# -cpu sweeps them. The text edge-list reader is serial and runs once.
echo "== ingest & partition benchmarks (-benchtime $INGEST_TIME, -cpu 1,2,4,8) ==" >&2
go test -run '^$' -bench '^BenchmarkIngestEdgeList$' \
    -benchtime "$INGEST_TIME" -benchmem ./internal/graph/
go test -run '^$' -bench '^BenchmarkIngestSharded$' \
    -cpu 1,2,4,8 -benchtime "$INGEST_TIME" -benchmem ./internal/graph/
go test -run '^$' -bench '^BenchmarkPartitionBuild$' \
    -cpu 1,2,4,8 -benchtime "$INGEST_TIME" -benchmem ./internal/partition/

echo "== out-of-core benchmarks (-benchtime $INGEST_TIME / $OOCORE_TIME) ==" >&2
# The PR-9 numbers: sharded decode throughput and on-disk size
# (file-B), the two-pass streaming partitioner against the in-RAM builder,
# and the full streamed generate -> partition -> solve pipeline with the
# heap high-water (heap-MB) as the acceptance metric. Set OOCORE_SCALE=23
# for the committed >= 10^8-edge run (see EXPERIMENTS.md — ~26 min on one
# core); the default scale-14 keeps CI fast.
go test -run '^$' -bench '^(BenchmarkShardedV2Read|BenchmarkPartitionBuildStreaming)$' \
    -benchtime "$INGEST_TIME" -benchmem ./internal/graph/ ./internal/partition/
go test -run '^$' -bench '^BenchmarkOocorePipeline$' -timeout 12h \
    -benchtime "$OOCORE_TIME" -benchmem .

echo "== merge benchmarks (-benchtime $MACRO_TIME) ==" >&2
# Stage-2 distributed merge (PR 10): the seed map-of-maps implementation
# against the zero-map counting-sort pipeline on the same converged world,
# warm and cold (PreaggCold drops the pooled scratch before every op, so its
# B/op is a solve's first merge). ns/op, allocs/op, B/op and wire-B/op
# (bytes sent per rank, from each endpoint's traffic counters) are the
# acceptance metrics.
go test -run '^$' -bench '^BenchmarkMerge(Seed|Preagg|PreaggCold)$' -benchtime "$MACRO_TIME" -benchmem \
    ./internal/core/

echo "== macro benchmarks (-benchtime $MACRO_TIME) ==" >&2
go test -run '^$' -bench '^(BenchmarkDistributedLouvain|BenchmarkFig8Breakdown)$' \
    -benchtime "$MACRO_TIME" -benchmem .

echo "== serving benchmarks (-benchtime $MACRO_TIME) ==" >&2
# The resident-service numbers (PR 8): the multi-tenant latency/throughput
# sweep (req/s, p50-µs, p99-µs at each offered rate) and the incremental-
# update-vs-full-resolve bracket — the incremental path's win is the PR-8
# acceptance metric.
go test -run '^$' -bench '^(BenchmarkServeLoad|BenchmarkIncrementalUpdate|BenchmarkFullResolve)$' \
    -benchtime "$MACRO_TIME" -benchmem ./internal/loadgen/
