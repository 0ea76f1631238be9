#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in and executes it; all
# arguments are passed through (see main.go). Build products, the Go
# cache and scratch files stay under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp" "$build/home"

export GOCACHE=$build/go-cache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export HOME=$build/home XDG_CONFIG_HOME=$build/home/.config
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off
export PERFBENCH_DIR=$build

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
