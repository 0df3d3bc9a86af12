#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it. Run from the
# repository root; every flag is passed through, for example:
#
#   bash _perfbench/run.sh --workload grid-hot --seed 1 --seconds 18 --trace 0
#
# The Go build cache, the binary, temporary store directories and span
# files all live under .bench_build/ in the current directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off
go -C "$here" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
