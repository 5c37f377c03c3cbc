#!/usr/bin/env bash
# Builds the benchmark harness from the sources of this checkout and runs
# one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload cold-grid --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and the benchmark's own state (first-run
# fingerprints, exact counts, traces, scratch result stores) all live under
# $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
state=$out/perfbench

export GOCACHE=$state/gocache GOTMPDIR=$state/gotmp GOPATH=$state/gopath
export GOMODCACHE=$state/gopath/pkg/mod XDG_CONFIG_HOME=$state/config
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off
mkdir -p "$GOTMPDIR" "$XDG_CONFIG_HOME"

(cd "$root/perfbench" && go build -o "$state/perfbench" .) >&2
exec "$state/perfbench" --state "$state" "$@"
