#!/usr/bin/env bash
# Builds the benchmark and the hundred CLI from source into .bench_build/ and
# runs the benchmark with the given arguments. Run it from the repository
# root:
#
#   bash bench/run.sh                                   # all five workloads
#   bash bench/run.sh --workload verdict-full --seed 3 --seconds 18 --trace 0
#
# Every file it builds, caches or spills stays under .bench_build/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/hundred ] || [ ! -f bench/go.mod ]; then
	echo "bench/run.sh: run from the repository root (go.mod, cmd/hundred and bench/ must be present)" >&2
	exit 2
fi

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files here too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=

# The benchmark runs the hundred binary it finds beside itself.
go build -o "$out/hundred" ./cmd/hundred
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
