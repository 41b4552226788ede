#!/usr/bin/env bash
# Builds apspd and the perfbench command from this checkout, then runs
# perfbench with the given arguments, e.g.
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 12 --trace 0
# Everything the build writes stays under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
cd "$root"
go build -o "$out/apspd" ./cmd/apspd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -apspd "$out/apspd" "$@"
