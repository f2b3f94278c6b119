#!/usr/bin/env bash
# Builds the benchmark driver and runs it with the given arguments, from
# the root of the checkout. The Go build cache and the binary live in
# .bench_build/ so that building, like running, writes only inside the
# checkout; the first build in a checkout compiles the standard library.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
export GOCACHE="$build/gocache"
go build -C benchmark -o "$build/orderbench" .
exec "$build/orderbench" "$@"
