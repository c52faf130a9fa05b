#!/usr/bin/env bash
# check.sh — the full local/CI gate: build, vet, project lint, the nested
# benchmark module, race tests, and a short fuzz smoke of every Fuzz* target.
# CI runs exactly this script, so a clean local run means a clean CI run.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== project lint (cmd/lint) =="
go run ./cmd/lint ./...

echo "== benchmark module (vet + harness tests) =="
# benchmark/_module is a module of its own (replace repro => ../../), so the
# root ./... patterns above never compile it: an exported function it links
# can be deleted with tier-1 still green. Build and test it here.
(cd benchmark/_module && go vet ./... && go test ./...)

echo "== go test -race -shuffle=on =="
# Shuffled execution order (PR 8) keeps tests honest about shared state:
# an order dependency fails here with the seed printed for replay
# (go test -shuffle=<seed> to reproduce).
go test -race -shuffle=on ./...

echo "== bench smoke (1 iteration per benchmark) =="
# The serving-load sweep is the PR-8 acceptance metric: fail loudly if it
# ever disappears from the discovery set rather than silently passing.
go test -list '^BenchmarkServeLoad$' -run '^$' ./internal/loadgen | grep '^BenchmarkServeLoad$' > /dev/null \
    || { echo "error: BenchmarkServeLoad missing from internal/loadgen" >&2; exit 1; }
# And the merge seed-vs-preagg pair, the PR-10 acceptance metric.
go test -list '^BenchmarkMergePreagg$' -run '^$' ./internal/core | grep '^BenchmarkMergePreagg$' > /dev/null \
    || { echo "error: BenchmarkMergePreagg missing from internal/core" >&2; exit 1; }
# And every stage-1 kernel microbenchmark (scripts/bench.sh runs them by
# prefix), so a rename cannot drop one unnoticed.
KERNELS='Sweep SweepArmed ScanCandidates PushAggregates GhostSwap FlushDeltas DelegateExchange GlobalModularity'
for k in $KERNELS; do
    go test -list "^BenchmarkKernel$k\$" -run '^$' ./internal/core | grep "^BenchmarkKernel$k\$" > /dev/null \
        || { echo "error: BenchmarkKernel$k missing from internal/core" >&2; exit 1; }
done
go test -run '^$' -bench . -benchtime 1x -benchmem ./... > /dev/null

echo "== chaos matrix smoke (-short: seeds 1-5, both transports) =="
# Quick seeded fault-injection sweep of the transport conformance suite
# (docs/ROBUSTNESS.md). The full 100-run matrix runs above as part of
# "go test -race ./..."; this step repeats the -short slice un-raced so a
# chaos regression is reported by a step named after it.
go test -run 'TestConformance|TestChaosMatrix' -short -count 1 ./internal/comm

echo "== out-of-core heap budget =="
# A streamed generate -> partition -> solve must stay inside the committed
# heap budget (scripts/oocore_heap_budget, in MB). The -memstats line is
# the HeapInuse high-water sampled every 20ms; tripping the budget means
# the out-of-core path has started materialising whole-graph state again.
oocore_budget_mb=$(grep -v '^#' scripts/oocore_heap_budget | head -1)
oocore_tmp=$(mktemp -d)
trap 'rm -rf "$oocore_tmp"' EXIT
go build -o "$oocore_tmp/gengraph" ./cmd/gengraph
go build -o "$oocore_tmp/dlouvain" ./cmd/dlouvain
"$oocore_tmp/gengraph" -stream -gen rmat:scale=14,ef=8,seed=7 -shards 16 -o "$oocore_tmp/check.sbin" > /dev/null
hw_mb=$("$oocore_tmp/dlouvain" -graph "$oocore_tmp/check.sbin" -oocore -memstats -p 2 \
    | awk '/^heap high-water:/ {print $3}')
[ -n "$hw_mb" ] || { echo "error: dlouvain -memstats printed no heap high-water line" >&2; exit 1; }
awk -v hw="$hw_mb" -v budget="$oocore_budget_mb" 'BEGIN { exit !(hw+0 <= budget+0) }' \
    || { echo "error: oocore heap high-water ${hw_mb} MB exceeds budget ${oocore_budget_mb} MB" >&2; exit 1; }
echo "oocore heap high-water: ${hw_mb} MB (budget ${oocore_budget_mb} MB)"

echo "== fuzz smoke (5s per target) =="
# The loop below auto-discovers targets, but the sharded graph format is a
# hard requirement of the ingest pipeline (PR 5): fail loudly if its fuzz
# harness ever disappears rather than silently skipping it.
# (plain grep, not -q: -q exits at first match and the closed pipe would
# fail the go-test side under pipefail)
go test -list '^FuzzReadBinarySharded$' ./internal/graph | grep '^FuzzReadBinarySharded$' > /dev/null \
    || { echo "error: FuzzReadBinarySharded missing from internal/graph" >&2; exit 1; }
# The windowed decode path is what the out-of-core pipeline (PR 9) lives
# on: FuzzReadWindow cross-checks ReadWindow against the whole-file decoder
# in both format versions, and must stay discovered.
go test -list '^FuzzReadWindow$' ./internal/graph | grep '^FuzzReadWindow$' > /dev/null \
    || { echo "error: FuzzReadWindow missing from internal/graph" >&2; exit 1; }
# Likewise the suppression-directive parser: every //lint:ignore in the tree
# flows through it, so its fuzz harness must stay in the discovery set.
go test -list '^FuzzIgnoreDirective$' ./internal/analysis | grep '^FuzzIgnoreDirective$' > /dev/null \
    || { echo "error: FuzzIgnoreDirective missing from internal/analysis" >&2; exit 1; }
for pkg in ./internal/wire ./internal/graph ./internal/comm ./internal/analysis; do
    for tgt in $(go test -list '^Fuzz' "$pkg" | grep '^Fuzz' || true); do
        echo "-- fuzz $pkg $tgt"
        go test -run '^$' -fuzz "^${tgt}\$" -fuzztime 5s "$pkg"
    done
done

echo "== all checks passed =="
