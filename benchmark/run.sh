#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout
# (build cache and temporary files included, so nothing outside the
# checkout is written) and runs it from benchmark/ with the given arguments.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/autocheck-benchmark" .
exec "$build/autocheck-benchmark" "$@"
