#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
#
#   bash benchmark/run.sh --workload tpch_cold --seed 1 --seconds 30 --trace 0
#
# Go's build cache, temporary files and the binary go to .bench_build/
# under the repository root, so the run writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
(cd benchmark && go build -o "$build/orthoq-benchmark" .)
exec "$build/orthoq-benchmark" "$@"
