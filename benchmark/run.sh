#!/bin/sh
# Builds the benchmark from the repository's sources and runs it with the
# given arguments. Run from the repository root:
#
#   sh benchmark/run.sh --workload noise_batch --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (the Go build cache, temporary files, the
# binary) stays under .bench_build in the repository root, and the build
# never touches the network.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/benchmark" && go build -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
