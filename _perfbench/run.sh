#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash _perfbench/run.sh --workload daemon-rank --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and the
# daemons' journals all live under .bench_build in that root, so the
# benchmark reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/_perfbench/go.mod" ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off
go -C "$root/_perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" --workdir "$build" "$@"
