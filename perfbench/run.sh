#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it with every argument passed on:
#
#   bash perfbench/run.sh --workload echo --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. The build cache, temporary files and
# the binary stay under $CARGO_TARGET_DIR (default .bench_build) inside the
# checkout; nothing is fetched.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config GOPATH=$out/gopath
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --spec "$root/BENCHMARK.json" "$@"
