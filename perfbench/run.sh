#!/usr/bin/env bash
# Builds the phasekit benchmark from the checkout in the current
# directory and runs it with the given arguments, for example
#
#   bash perfbench/run.sh --workload ingest-paper --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary,
# corpus cache, WAL directories, span dumps) stays under .bench_build/
# in the current directory.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$here" build -o "$out/pkbench" .
exec "$out/pkbench" "$@"
