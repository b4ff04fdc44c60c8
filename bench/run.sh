#!/usr/bin/env bash
# Builds the harness from source into .bench_build/ under the current
# directory (the checkout root) and runs it with the given arguments. The Go
# build cache lives there too, so nothing is read or written outside the
# checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$out/bench" .) >&2
exec "$out/bench" -scratch "$out" "$@"
