#!/usr/bin/env bash
# Builds the end-to-end benchmark from the source tree it sits in and runs
# it with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload pull-small --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, trace files and reports.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off CGO_ENABLED=0
# Fall back to the Go distribution's default install location.
export PATH="$PATH:/usr/local/go/bin"

go -C "$root/e2ebench" build -o "$out/e2ebench" . >&2
exec "$out/e2ebench" -out "$out/e2ebench-out" "$@"
