#!/usr/bin/env bash
# Builds the SCAN layered benchmark from source and runs it. Run it from the
# repository root; every argument is passed to the benchmark binary, e.g.
#
#   bash scanbench/run.sh --workload warm-mixed --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, temp
# directories, trace files) goes under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/tmp"

export GOCACHE="${build}/gocache"
export GOTMPDIR="${build}/tmp"
export TMPDIR="${build}/tmp"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "${here}" && go build -o "${build}/scanbench" .)
exec "${build}/scanbench" -trace-dir "${build}/traces" -tmp-dir "${build}/tmp" "$@"
