#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything the Go toolchain writes (build cache, binary,
# telemetry) stays under <checkout>/.bench_build, so a run reads and writes
# nothing outside the checkout. The first call in a checkout compiles the
# standard library into that cache; later calls only re-link what changed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod

(cd "$here" && go build -o "$build/zlbench" .)
cd "$root"
exec "$build/zlbench" "$@"
