#!/usr/bin/env bash
# Builds sheriffd and the benchmark from source, then runs one workload:
#
#   bash perfbench/run.sh --workload crowd-distinct --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binaries, data dirs, logs) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod must exist)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOENV=off

go build -o "$out/sheriffd" ./cmd/sheriffd >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2

exec "$out/perfbench" -sheriffd "$out/sheriffd" -work "$out" "$@"
