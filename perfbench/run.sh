#!/usr/bin/env bash
# Builds the benchmark and the densestd daemon from this checkout's
# sources, then runs the benchmark. Every build and run artifact stays
# under .bench_build/ at the checkout root.
#
#   bash perfbench/run.sh --workload peel-mem --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh --steady --runs 10 --seconds 30
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -C perfbench -o "$out/perfbench" .
go build -o "$out/densestd" ./cmd/densestd
exec "$out/perfbench" -densestd "$out/densestd" -out "$out" "$@"
