#!/usr/bin/env bash
# Builds the benchmark into the checkout's .bench_build/ (Go's build cache
# included, so nothing is written outside the checkout) and runs it from
# the repository root with the arguments given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
# The commit is stamped into the binary when the checkout is a usable git
# repository; where git refuses (another owner's repository), build without.
go build -C "$here" -o "$build/bench" . 2>/dev/null ||
	go build -C "$here" -buildvcs=false -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
