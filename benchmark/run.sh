#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in, then runs it with the
# given arguments from the checkout root:
#
#   bash benchmark/run.sh --workload scan-uncached --seed 2017 --seconds 15 --trace 0
#
# Every build artefact (binary, Go build cache, temporary files) stays under
# .bench_build/ in the checkout. The build needs the repository's own module
# one directory up, so a copy of benchmark/ on its own fails here.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=

go -C "$root/benchmark" build -o "$out/gia-benchmark" .
cd "$root"
exec "$out/gia-benchmark" "$@"
