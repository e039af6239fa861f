#!/usr/bin/env bash
# Build rap_bench from this checkout's sources (the first run compiles,
# later runs find the build up to date), then run it with the given
# arguments, e.g.
#
#   bash bench/suite/run.sh --workload fig_grid --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last stdout line is rap_bench's
# result. Run from the repository root.
set -euo pipefail

suite="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build=".bench_build/suite"

cmake -S "$suite" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j4 >&2
exec "$build/rap_bench" "$@"
