#!/usr/bin/env bash
# Builds the benchmark executables and regenerates the tracked perf artifacts
# at the repo root:
#   BENCH_engine.json — engine-vs-naive certification throughput (DESIGN.md §6)
#   BENCH_search.json — annealing throughput per evaluator and width, and
#                       best-response dynamics timings (DESIGN.md §9)
#
# Usage: bench/run_bench.sh [max_n]   (default 1024; each bench skips its
# rows above max_n — the search bench's largest are n = 256 anneal and
# n = 512 dynamics)
#
# Environment knobs:
#   BNCG_BENCH_OUT_DIR=path  write the JSON artifacts there instead of the
#                            repo root (CI's quick-mode trajectory capture
#                            uploads them as workflow artifacts without
#                            touching the tracked files)
#
# Every artifact is stamped with the current git SHA (exported here as
# BNCG_BENCH_GIT_SHA) and an ISO-8601 UTC timestamp by the emitters.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build-bench"
max_n="${1:-1024}"
out_dir="${BNCG_BENCH_OUT_DIR:-${repo_root}}"
mkdir -p "${out_dir}"

# Stamp the exact repo state measured: HEAD's SHA, with a -dirty suffix
# when the working tree has uncommitted changes, so artifacts are never
# attributed to a commit that lacks the measured code.
BNCG_BENCH_GIT_SHA="$(git -C "${repo_root}" rev-parse HEAD 2>/dev/null || echo unknown)"
if [ "${BNCG_BENCH_GIT_SHA}" != "unknown" ] && \
   [ -n "$(git -C "${repo_root}" status --porcelain 2>/dev/null)" ]; then
  # Includes untracked files: a new source file is compiled in by the
  # CONFIGURE_DEPENDS globs even though HEAD knows nothing about it.
  BNCG_BENCH_GIT_SHA="${BNCG_BENCH_GIT_SHA}-dirty"
fi
export BNCG_BENCH_GIT_SHA

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=Release \
  -DBNCG_BUILD_BENCHMARKS=ON \
  -DBNCG_BUILD_TESTS=OFF >/dev/null
cmake --build "${build_dir}" --target bench_engine_json bench_search_json -j "$(nproc)" >/dev/null

"${build_dir}/bench_engine_json" "${out_dir}/BENCH_engine.json" "${max_n}"
"${build_dir}/bench_search_json" "${out_dir}/BENCH_search.json" "${max_n}"
