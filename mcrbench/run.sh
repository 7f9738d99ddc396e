#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments, e.g.
#
#   bash mcrbench/run.sh --workload tigr-4x --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, temporary files) goes under .bench_build there.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$src" && go build -o "$out/mcrbench" .)
exec "$out/mcrbench" "$@"
