#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
#
# Run from the repository root:
#
#	bash bench/run.sh --workload gid1-sweep --seed 1 --seconds 15 --trace 0
#
# Everything the Go toolchain and the benchmark write (build cache,
# temporary files, the binary, data directories) stays under .bench_build
# in the current directory. The build ignores the caller's GOFLAGS, leaves
# cgo off, so machines with and without a C compiler build the same
# program, and stamps no version control data, so it does not depend on
# whether the checkout is a git repository.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
	GOFLAGS= CGO_ENABLED=0
go -C bench build -buildvcs=false -o "$build/bench" .
exec "$build/bench" "$@"
