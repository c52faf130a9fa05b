#!/usr/bin/env bash
# Builds the benchmark from source and runs it. The driver calls this from
# the root of a checkout as
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Everything the build and the run write (Go's build cache, the binary, the
# generated graphs, the span files) stays under .bench_build/ in the
# checkout. The benchmark is a module of its own that imports the
# repository's packages through a replace directive, so a directory holding
# only the benchmark does not build and this script fails there.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off GOENV=off
(cd "$here/_module" && go build -o "$build/bench" ./cmd/bench)
cd "$root"
exec "$build/bench" "$@"
