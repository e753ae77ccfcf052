#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload solve-cold --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under the build directory
# (CARGO_TARGET_DIR when set, else .bench_build): the Go build cache, the
# binary, and the run's scratch files (journals, traces).
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/home"

export GOCACHE=$build/gocache
export GOTMPDIR=$build/gotmp
export GOPATH=$build/home/go
export HOME=$build/home
export XDG_CACHE_HOME=$build/home/.cache
export XDG_CONFIG_HOME=$build/home/.config
export GOTOOLCHAIN=local
export GOFLAGS=

(cd perfbench && go build -o "$build/perfbench-bin" .)
exec "$build/perfbench-bin" -work "$build/perfbench" "$@"
