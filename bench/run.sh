#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (Go's build cache,
# module cache and config live there too, so nothing is written outside the
# checkout) and runs it from the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$build/tabula-bench" .
exec "$build/tabula-bench" "$@"
