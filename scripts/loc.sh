#!/usr/bin/env sh
# loc.sh — the repository's Go line counts, the net-LOC figure ROADMAP
# tracks.
#
# Prints the non-test and total line counts over the tracked Go files
# (`git ls-files '*.go'`); a file is a test file when its name ends in
# _test.go. Run it at two commits to get a change's net LOC.
set -eu

cd "$(dirname "$0")/.."
nontest=$(git ls-files '*.go' | grep -v '_test\.go$' | xargs cat | wc -l | tr -d " ")
total=$(git ls-files '*.go' | xargs cat | wc -l | tr -d " ")
echo "non-test Go lines: $nontest"
echo "total Go lines:    $total"
