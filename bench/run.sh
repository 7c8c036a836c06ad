#!/usr/bin/env bash
# Builds the gate benchmark inside the checkout and runs it from the
# checkout's root, passing every argument through:
#
#   bash bench/run.sh --workload wire-stream --seed 1 --seconds 20 --trace 0
#
# Everything the build leaves behind (binary, Go build cache) goes under
# .bench_build/ at the root, which .gitignore names. Without the rest of the
# repository next to bench/ the build fails and so does this script.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/lyra-gate" .)
cd "$root"
exec "$build/lyra-gate" "$@"
