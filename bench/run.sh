#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout's root.
# Everything the build writes — the Go build cache and the binary — stays in
# .bench_build/ inside the checkout; the toolchain itself must already be
# installed (nothing is downloaded: the module has no dependencies).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
