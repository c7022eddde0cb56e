#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from
# the repository root; arguments go to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload paper-study --seed 42 --seconds 20 --trace 0
#
# The binary, the Go build cache and the benchmark's generated inputs all
# stay under the build directory ($CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a fairsched checkout" >&2
	exit 2
fi
build="$(pwd)/${CARGO_TARGET_DIR:-.bench_build}"
case "${CARGO_TARGET_DIR:-}" in /*) build="$CARGO_TARGET_DIR" ;; esac
mkdir -p "$build/go/cache" "$build/go/path" "$build/go/tmp" "$build/go/config"
export GOCACHE="$build/go/cache" GOPATH="$build/go/path" GOTMPDIR="$build/go/tmp" \
	XDG_CONFIG_HOME="$build/go/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -work "$build/work" "$@"
