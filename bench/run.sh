#!/bin/sh
# run.sh builds the benchmark from source and runs it with the
# given arguments, from the repository root:
#
#   bash bench/run.sh --workload serve-mixed --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh -seed 1            # every workload, 3 runs each
#
# The build goes to .bench_build/ at the root, and every file the Go
# toolchain writes (build cache, temporary files, settings) stays under
# it. The bench module replaces the repository module with ../, so
# outside a full checkout the build fails and no result is printed.
set -eu
cd "$(dirname "$0")/.."
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS=-mod=readonly GOWORK=off
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
