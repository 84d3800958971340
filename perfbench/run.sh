#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Run it from
# the root of a checkout:
#
#   bash perfbench/run.sh --workload stream-cwn --seed 7 --seconds 10 --trace 0
#   bash perfbench/run.sh run -workload ctrl-gm -passes 20
#   bash perfbench/run.sh compare A/results.json B/results.json
#
# Arguments that start with a dash are a `run`; anything else names the
# subcommand. The build cache, temporary files, the binary and the results
# all stay under .bench_build/ in the checkout.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off

(cd perfbench && go build -o "$build/perfbench" .)

case "${1:-}" in
-*) exec "$build/perfbench" run -out "$build/results" "$@" ;;
*) exec "$build/perfbench" "$@" ;;
esac
