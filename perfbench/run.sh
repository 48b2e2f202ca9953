#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload read_hot --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the toolchain's temporary and
# config files stay under .bench_build/ in the checkout. The last line
# of standard output is the JSON result.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
