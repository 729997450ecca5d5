#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload matmul-k2 --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Every build artifact, cache and
# scratch file stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" -out "$build" "$@"
