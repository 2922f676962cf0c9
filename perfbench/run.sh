#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run it from
# the repository root; every argument is passed through:
#
#   bash perfbench/run.sh --workload overlap --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and the durable workload's data all
# live under .bench_build/ in the repository root, so nothing is written
# outside the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" -root "$root" "$@"
