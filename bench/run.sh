#!/usr/bin/env bash
# Builds pmsbench from bench/ and runs it from the repository root,
# passing every argument through (bench/README.md lists them).
#
#   bash bench/run.sh --workload point-color --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binaries stay inside the
# checkout, under .bench_build/, and the build never reaches the network.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
go -C bench build -o "$build/pmsbench" .
exec "$build/pmsbench" "$@"
