#!/usr/bin/env bash
# Builds neuroc-perf from the sources of this checkout and runs it with
# the given arguments. Run it from the repository root, e.g.
#
#   bash cmd/neuroc-perf/run.sh --workload eval-ternary --seed 1 --seconds 15 --trace 0
#
# The build and everything it caches go under .bench_build/ in the
# current directory, so nothing outside the checkout is written.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C "$here" -o "$out/neuroc-perf" .
exec "$out/neuroc-perf" "$@"
