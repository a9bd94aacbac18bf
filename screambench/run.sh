#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash screambench/run.sh --workload greedy-steady --seed 1 --seconds 20 --trace 0
#   bash screambench/run.sh --steady 10 --seconds 20        # steadiness report
#
# Build outputs, the Go build cache and the go command's user config
# (telemetry counters) stay inside the checkout, under .bench_build/. The
# benchmark module replaces "scream" with the checkout root, so the build
# fails (and nothing is printed on stdout) when the library sources are not
# there.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off
(cd "$root/screambench" && go build -o "$out/screambench" .) >&2
exec "$out/screambench" "$@"
