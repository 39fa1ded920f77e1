#!/usr/bin/env bash
# Builds the wall-clock benchmark from the checkout's sources and runs it
# with the given arguments (see README.md). Run from the checkout root:
#
#   bash perfbench/run.sh --workload ipr8-scalar --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write stays inside the checkout: the
# Go build cache, the binary and the tool's own config live under
# $CARGO_TARGET_DIR (default .bench_build), results under perfbench/out.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomod XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
