#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): build the bench
# from source inside the checkout, then run it with the driver's flags.
# Run from the repository root:
#
#   bash bench/run.sh --workload oltp-mem --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the build's temporary files, the binary,
# data directories, trace and result files.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/out"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off
export XDG_CONFIG_HOME="$build/config" # where the go command keeps its telemetry counters
# Standard output carries only the result line, so the build talks on
# standard error. Without the engine's sources beside bench/ this fails,
# and the script with it.
(cd "$root/bench" && go build -o "$build/tsbbench" .) >&2
exec "$build/tsbbench" -out "$build/out" "$@"
