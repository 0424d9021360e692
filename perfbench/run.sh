#!/usr/bin/env bash
# Builds the workload benchmark from source and runs it. Run it from the
# repository root, for example:
#
#   bash perfbench/run.sh --workload mc-batched --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, spans and temporary store directories
# all stay under the build directory: $CARGO_TARGET_DIR when set,
# otherwise .bench_build in the current directory.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/tmp"

(
	cd "$(dirname "$0")"
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
		XDG_CONFIG_HOME="$build/config" GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local \
		go build -o "$build/perfbench" .
)

export TMPDIR="$build/tmp"
exec "$build/perfbench" -spans "$build/spans.json" "$@"
