#!/usr/bin/env bash
# Builds the benchmark and the etlrun binary it drives into .bench_build/
# (Go caches included, so nothing is written outside the checkout) and
# runs the benchmark with the given arguments from the checkout's root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$build/bin/benchmark" .)
# The per-mode and checkpoint figures run etlrun as a child process. A
# checkout whose etlrun no longer builds loses those figures, not the run.
(cd "$root" && go build -o "$build/bin/etlrun" ./cmd/etlrun) ||
	{ rm -f "$build/bin/etlrun"; echo "run.sh: cmd/etlrun does not build; mode figures will be absent" >&2; }
cd "$root"
exec "$build/bin/benchmark" "$@"
