#!/usr/bin/env bash
# Builds the benchmark harness from this checkout and runs it:
#
#   bash perfbench/run.sh --workload fleet --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# trace files all stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/ not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
