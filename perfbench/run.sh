#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it. Run from the checkout root:
#
#   bash perfbench/run.sh --workload npb-htm --seed 1 --seconds 30 --trace 0
#
# Every file the build and the run write stays under the output directory:
# $CARGO_TARGET_DIR when set, else .bench_build, taken from the checkout root
# when relative.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/home" "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOTELEMETRY=off CGO_ENABLED=0

(cd "$(dirname "$0")" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" --outdir "$out" "$@"
