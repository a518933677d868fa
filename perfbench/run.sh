#!/usr/bin/env bash
# run.sh — build the transfer benchmark from source and run it.
#
#   bash perfbench/run.sh --workload bulk --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, landed files, Chrome traces) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"

# Keep the Go toolchain's caches and config inside the checkout, and
# never let it fetch a newer toolchain.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
