#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments (see bench/README.md). Everything the build and the run
# write stays under .bench_build/ at the checkout root: the Go cache,
# temporary files, and the go command's config directory (its env file
# and telemetry counters). The build never touches the network.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local
go -C "$root/bench" build -o "$build/bench" .
cd "$root"
exec "$build/bench" -workdir "$build/work" "$@"
