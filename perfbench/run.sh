#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root; every build output, the Go build cache
# included, stays under .bench_build (or $CARGO_TARGET_DIR) there.
set -euo pipefail

build="$(pwd)/${CARGO_TARGET_DIR:-.bench_build}"
case "${CARGO_TARGET_DIR:-}" in /*) build="$CARGO_TARGET_DIR" ;; esac
out="$build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off

(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --spans-dir "$out" "$@"
