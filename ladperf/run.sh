#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash ladperf/run.sh --workload batch-hot --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/ in the current directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOTELEMETRY=off
export XDG_CONFIG_HOME="$build/config"

go -C "$here" build -o "$build/ladperf" .
exec "$build/ladperf" "$@"
