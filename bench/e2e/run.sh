#!/usr/bin/env bash
# Builds bench_e2e from the sources of the checkout it sits in (Release,
# into .bench_build/e2e at the checkout root) and runs it. Every argument is
# passed through, e.g.
#   bash bench/e2e/run.sh --workload qr_read --seed 1 --seconds 10 --trace 0
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/e2e"
# Keep the compiler's temporary files inside the checkout too.
export TMPDIR="$build/tmp"
mkdir -p "$TMPDIR"

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j 4 --target bench_e2e >&2

exec "$build/bench_e2e" --data-dir "$build/data" \
  --trace-file "$build/trace.json" "$@"
