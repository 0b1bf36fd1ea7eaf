#!/usr/bin/env bash
# Builds the server under test and the benchmark from this checkout, then
# runs the benchmark. Build outputs and the Go build cache stay under
# benchmark/out so nothing is written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out
export GOCACHE="$PWD/out/gocache" GOFLAGS=-buildvcs=false
(cd .. && go build -o benchmark/out/geoserver ./cmd/geoserver)
go build -o out/bench .
exec out/bench "$@"
