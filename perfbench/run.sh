#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs one workload;
# the arguments pass through to the benchmark:
#
#   bash perfbench/run.sh --workload check-cold --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Build outputs, the Go build cache and
# span files go to $CARGO_TARGET_DIR (default .bench_build), so the run writes
# nothing outside the checkout and needs no network.
set -euo pipefail

if [[ ! -f go.mod || ! -d dining || ! -d internal/serve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a checkout holding go.mod, dining/, internal/ and perfbench/" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOWORK=off GOFLAGS= \
	GOTOOLCHAIN=local GOPROXY=off

(cd perfbench && go build -trimpath -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build" "$@"
