#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload mc-grouped --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and any
# span files stay under .bench_build/ there; the last line of standard
# output is the result object.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/config"

(
	cd "$src"
	env GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" \
		GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= \
		go build -o "$out/perfbench" .
) >&2

exec "$out/perfbench" "$@"
