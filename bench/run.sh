#!/usr/bin/env bash
# Builds the harness from source and runs it from the root of the
# checkout. Everything the build and the run write stays inside the
# checkout, under .bench_build/: the Go build cache, GOPATH, the Go
# tool's config directory, and the binary itself.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local
cd "$root"
go build -C bench -o "$build/atmbench" .
exec "$build/atmbench" "$@"
