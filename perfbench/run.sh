#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of a modsched checkout:
#
#   bash perfbench/run.sh --workload corpus --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (the Go build cache, temporary files, the
# binary) goes under .bench_build in the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" GOENV=off GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" \
  GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
