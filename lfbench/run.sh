#!/usr/bin/env bash
# Builds the LabFlow-1 benchmark from the checkout's sources and runs it.
# Run from the root of a checkout:
#
#   bash lfbench/run.sh --workload labflow1 --seed 1 --seconds 10 --trace 0
#   bash lfbench/run.sh --steady --seconds 10
#
# Everything the build and the run leave behind goes under .bench_build/ in
# the checkout (Go build cache, temporary files, the binary, the stores and
# the trace), so nothing is read or written outside it.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
dir=${CARGO_TARGET_DIR:-.bench_build}
case "$dir" in
/*) out=$dir ;;
*) out="$root/$dir" ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOWORK=off
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOPROXY=off
export GOTELEMETRY=off

(cd "$here" && go build -o "$out/lfbench" .)
exec "$out/lfbench" -build "$out" "$@"
