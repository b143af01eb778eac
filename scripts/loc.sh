#!/usr/bin/env bash
# Prints the tracked size number ROADMAP quotes (aim 2, Baseline): non-test
# Go lines in the root module — bench/ is its own module, testdata holds
# fixtures. Record-only; nothing gates on it.
set -euo pipefail
cd "$(dirname "$0")/.."
find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path '*/testdata/*' | xargs cat | wc -l
