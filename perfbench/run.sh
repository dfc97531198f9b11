#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it. Run from
# the repository root; arguments pass through, e.g.
#   bash perfbench/run.sh --workload browse --seed 1 --seconds 15 --trace 0
# Build outputs, the Go build cache and span files stay in .bench_build.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
