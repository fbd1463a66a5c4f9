#!/usr/bin/env bash
# Builds the benchmark and the gossipd server from this checkout's sources,
# then runs one benchmark pass. Run it from the repository root:
#
#   bash perfbench/run.sh --workload plan-cold --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, both binaries, the plan
# store the serve workload fills, and the span files of traced runs.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/run"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0

go build -o "$out/bin/gossipd" ./cmd/gossipd
(cd perfbench && go build -o "$out/bin/perfbench" .)

exec "$out/bin/perfbench" --gossipd "$out/bin/gossipd" --workdir "$out/run" "$@"
