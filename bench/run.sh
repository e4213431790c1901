#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark. Run it from the repository
# root:
#
#   bash bench/run.sh --workload gen-mg --seed 1 --seconds 10 --trace 0
#
# Every build artefact, Go cache and temporary file stays under
# .bench_build/ in the checkout, so the benchmark reads and writes
# nothing outside it.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/go-cache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
# The go command keeps local telemetry under XDG_CONFIG_HOME; switch it
# off there once so it starts no helper process.
if [ ! -f "$XDG_CONFIG_HOME/go/telemetry/mode" ]; then
	go telemetry off
fi

go -C bench build -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
