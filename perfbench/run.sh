#!/usr/bin/env bash
# Builds the Colza benchmark from the checkout it runs in and executes it.
# Run from the repository root:
#   bash perfbench/run.sh --workload stage-sm --seed 1 --seconds 20 --trace 0
# Build outputs, the Go build cache and sm segments stay under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
