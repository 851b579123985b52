#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's source and runs it
# with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload serve-mixed --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache, the
# go command's own config and telemetry files, and traced-run spans stay
# under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off

go build -C e2ebench -o "$build/e2ebench" .
exec "$build/e2ebench" --spans-dir "$build" "$@"
