#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload scan --seed 1 --seconds 20 --trace 0
#
# Every build artifact and cache stays in .bench_build (or
# $CARGO_TARGET_DIR when set) inside the checkout. The benchmark is its
# own module that imports the repository's packages from the parent
# directory, so it fails to build, and exits non-zero without a result,
# anywhere the repository is not.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
export GOWORK=off CGO_ENABLED=0

(cd perfbench && go build -trimpath -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
