#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments
# (see main.go for the flags). Run it from the repository root:
#
#   bash perfbench/run.sh --workload warm_hit --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build/ in the current directory. Build output goes
# to stderr, so the last line of stdout is the benchmark's JSON result.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
