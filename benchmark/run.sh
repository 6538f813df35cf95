#!/usr/bin/env bash
# Builds the ledger and the decomined daemon from this checkout's source
# into .bench_build/ (nothing is written outside the checkout, the Go
# build cache included) and runs one workload:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$out/ledger" .
go build -C "$root" -o "$out/decomined" ./cmd/decomined
exec "$out/ledger" -decomined "$out/decomined" -workdir "$out/tmp" "$@"
