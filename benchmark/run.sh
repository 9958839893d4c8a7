#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Everything the build writes (binary, Go build cache) stays under
# benchmark/.build; span files go to benchmark/out.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" --out "$here/out" "$@"
