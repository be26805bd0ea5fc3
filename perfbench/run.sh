#!/bin/sh
# Builds the ccsim benchmark from the sources of the checkout it sits in and
# runs it; every argument passes through to the benchmark (see main.go).
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload rc_sweep --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and traced runs' spans and profiles go to
# $CARGO_TARGET_DIR, .bench_build by default, so nothing is written outside
# the checkout.
set -eu
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" --out "$build/trace" "$@"
