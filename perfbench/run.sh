#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 10 --trace 0
#
# Every build artifact, cache and trace stays under .bench_build in the
# current directory. Without the repository's sources next to perfbench/ the
# build fails and the script exits non-zero before printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"

(
	cd "$root/perfbench"
	env HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home" \
		GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
		GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=mod \
		GOPROXY=off GOTELEMETRY=off CGO_ENABLED=0 \
		go build -o "$out/perfbench" .
) >&2

exec "$out/perfbench" --spans-dir "$out/spans" "$@"
