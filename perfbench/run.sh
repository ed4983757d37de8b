#!/usr/bin/env bash
# Builds cmd/rcacopilotd and the benchmark (perfbench) from this checkout into
# .bench_build/, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload incident-replay --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build and run artefact (Go build
# cache, binaries, daemon logs, WAL directories, span dumps) stays under
# .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOENV=off TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

go build -o "$build/rcacopilotd" ./cmd/rcacopilotd >&2
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --daemon "$build/rcacopilotd" --workdir "$build" "$@"
