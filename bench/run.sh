#!/usr/bin/env bash
# Builds the benchmark with every Go cache inside the checkout and runs it.
# Call from the root of the checkout: bash bench/run.sh --workload point-small
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
export GODEBUG=madvdontneed=0 GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"
go build -C "$root/bench" -o "$build/rangecube-bench" .
exec "$build/rangecube-bench" "$@"
