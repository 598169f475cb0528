#!/usr/bin/env bash
# Builds the GlobeDoc benchmark from the checkout it sits in and runs it.
#
#   bash perfbench/run.sh --workload browse --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Everything the build writes (Go build
# cache, temp files, the binary) goes under .bench_build/ in that root; the
# benchmark itself writes nothing. Without the GlobeDoc sources next to
# perfbench/ the build fails and so does this script.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOWORK=off GOENV=off GOPROXY=off \
	GOFLAGS=-mod=mod CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -fixtures "$root/perfbench/testdata" "$@"
