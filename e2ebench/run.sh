#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it.
# Usage (from the repository root):
#   bash e2ebench/run.sh --workload chat --seed 1 --seconds 10 --trace 0
# Every build and run artefact stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build), including the Go build
# cache, so a fresh checkout builds from source once and reuses the cache.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/home" "$build/tmp"

export HOME=$build/home
export XDG_CACHE_HOME=$build/home/.cache
export XDG_CONFIG_HOME=$build/home/.config
export GOCACHE=$build/gocache
export GOPATH=$build/gopath
export GOTMPDIR=$build/tmp
export GOTOOLCHAIN=local
export GOFLAGS=
export E2EBENCH_TMP=$build/tmp
export E2EBENCH_OUT=$build

(cd "$root/e2ebench" && go build -o "$build/e2ebench" .) >&2
exec "$build/e2ebench" "$@"
