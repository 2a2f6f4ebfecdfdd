#!/usr/bin/env bash
# run.sh builds the perfbench command from the checkout's sources and runs
# it with the given arguments. Run it from the repository root:
#
#	bash perfbench/run.sh --workload sweep-local --seed 1 --seconds 10 --trace 0
#
# Every build product, the Go build cache and the benchmark's scratch files
# stay under the build directory ($CARGO_TARGET_DIR when set, else
# .bench_build), so a run reads and writes nothing outside the checkout
# besides the Go toolchain itself. The build fails, and the script exits
# non-zero without printing a result, when the repository's own module is
# not beside this directory.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

export GOCACHE=$build/gocache
export GOTMPDIR=$build/tmp
export GOMODCACHE=$build/gomodcache
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOWORK=off

here=$(cd "$(dirname "$0")" && pwd)
(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -tmp "$build/tmp" "$@"
