#!/usr/bin/env bash
# Builds the system benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload fleet-sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build
# directory: $CARGO_TARGET_DIR when set, otherwise .bench_build. The Go
# toolchain is kept offline and on the local version.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/config"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath
export GOTMPDIR=$build/tmp TMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" --workdir "$build" "$@"
