#!/usr/bin/env bash
# Builds vnnd and the harness from source and runs the harness with the
# arguments given. Every build product, the Go build cache included, lands
# in .bench_build/ at the root of the checkout, so a run reads and writes
# nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local
cd "$here"
go build -o "$out/vnnd" repro/cmd/vnnd
go build -o "$out/vnnbench" .
cd "$root"
exec "$out/vnnbench" -vnnd "$out/vnnd" "$@"
