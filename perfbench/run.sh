#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of this checkout and
# runs it with the given arguments, for example
#
#   bash perfbench/run.sh --workload server-mix --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build writes (compiler
# cache, temporary files, the binary) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
