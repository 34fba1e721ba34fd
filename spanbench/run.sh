#!/usr/bin/env bash
# Builds the spannerd benchmark from the checkout's sources, then runs it
# with the given arguments. Run it from the checkout root:
#
#   bash spanbench/run.sh --workload build --seed 1 --seconds 20 --trace 0
#   bash spanbench/run.sh steady --workload serve --runs 5 --sets 2 --gap 2m
#
# The Go build cache, the binary and every file a run writes stay under
# .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
(cd spanbench && go build -o "$out/spanbench" .) >&2
exec "$out/spanbench" "$@"
