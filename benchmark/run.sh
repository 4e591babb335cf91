#!/usr/bin/env bash
# Builds the benchmark from source and runs it.
#
#   bash benchmark/run.sh [--seed N] [--quick]            # every workload
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# The build lives in .bench_build/ at the repo root; build output goes to
# stderr so stdout carries only the benchmark's results.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"

mkdir -p "$build"
{
  flock 9
  if [ ! -f "$build/Makefile" ]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
  fi
  cmake --build "$build" --target fs_bench -j "$(nproc)" >&2
} 9>"$build/.lock"

commit=unknown
if [ -d "$root/.git" ]; then
  commit="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
fi

exec "$build/fs_bench" --out-dir "$root/benchmark/out" --commit "$commit" "$@"
