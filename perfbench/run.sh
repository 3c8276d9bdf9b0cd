#!/bin/sh
# Builds the fastppv benchmark from the sources of the checkout it is run
# from, then runs it with the given arguments. Run from the repository root:
#
#   sh perfbench/run.sh --workload zipf-serve --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build), including the Go build
# cache and temporary files.
set -eu

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp" "$build/home" "$build/work"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOPATH="$build/home/go" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

go build -C "$root/perfbench" -o "$build/perfbench" .
exec "$build/perfbench" --work "$build/work" "$@"
