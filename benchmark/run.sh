#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it with the given arguments:
#
#   bash benchmark/run.sh --workload grid-linear --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# goes under $CARGO_TARGET_DIR (default .bench_build) in that directory: the
# Go build and module caches, the binary, and the service workload's job
# state.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOPATH="$build/go-path"
export GOTMPDIR="$build/go-tmp"
export HOME="$build/home"
export XDG_CONFIG_HOME="$HOME/.config"
export XDG_CACHE_HOME="$HOME/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTELEMETRY=off
mkdir -p "$GOTMPDIR" "$HOME"

(cd "$here" && go build -o "$build/wavepipe-benchmark" .)
export BENCH_STATE_DIR="$build"
exec "$build/wavepipe-benchmark" "$@"
