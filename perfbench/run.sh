#!/usr/bin/env bash
# Builds the planner benchmark from source and runs it. Run it from the
# repository root; every argument passes through to the benchmark:
#
#   bash perfbench/run.sh --workload cold_synth --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary and the persist
# stores of the run (removed when it ends).
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/cache" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	XDG_CACHE_HOME="$out/cache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

commit=unknown
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	commit="$(git -C "$root" rev-parse HEAD)"
	git -C "$root" diff --quiet HEAD 2>/dev/null || commit="$commit-dirty"
fi

(cd "$here" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
