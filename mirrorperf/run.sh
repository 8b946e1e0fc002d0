#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, for example:
#
#   bash mirrorperf/run.sh --workload kv-read-sync --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache, temporary files (the servers' media
# files among them) and trace spans all stay under .bench_build in the
# current directory; nothing is fetched from the network.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd mirrorperf && go build -o "$out/mirrorperf" .)
exec "$out/mirrorperf" "$@"
