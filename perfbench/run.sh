#!/usr/bin/env bash
# Builds cmd/gvserve and the perfbench command from this checkout, then
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload read-open --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache included, stay under .bench_build
# (or $CARGO_TARGET_DIR when set), so a run reads and writes only inside
# the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/gvserve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/gvserve and perfbench/ are needed)" >&2
	exit 2
fi

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
[[ $build == /* ]] || build="$root/$build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
mkdir -p "$GOTMPDIR"

go build -o "$build/gvserve" ./cmd/gvserve
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -build "$build" "$@"
