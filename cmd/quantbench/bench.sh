#!/usr/bin/env bash
# Builds quantbench from the checkout's sources and runs it with the given
# arguments. Run it from the repository root:
#
#   bash cmd/quantbench/bench.sh --workload serve-closed --seed 1 --seconds 20 --trace 0
#
# Every Go cache, temporary file and the binary live under .bench_build, so
# building and running read and write nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/cmd/quantbench" && go build -o "$out/quantbench" .)
exec "$out/quantbench" "$@"
