#!/usr/bin/env sh
# loc.sh — count the Go lines of the module outside bench/, split into
# non-test and test files. The non-test figure is the one ROADMAP
# "Recent" quotes for each change.
#
# Usage:
#   scripts/loc.sh
set -eu

cd "$(dirname "$0")/.."

# count prints the line total of the Go files outside bench/ whose names
# do (grep) or do not (grep -v) end in _test.go.
count() {
	find . -path ./bench -prune -o -path ./.git -prune -o -type f -name '*.go' -print |
		"$@" '_test\.go$' | xargs cat | wc -l | tr -d ' '
}

echo "non-test $(count grep -v)"
echo "test     $(count grep)"
