#!/usr/bin/env bash
# Tier-1 verification entry point (matches ROADMAP's verify line):
# configure, build, and run every test carrying the `tier1` CTest label.
#
# Usage: scripts/run_tests.sh [extra ctest args...]
#   scripts/run_tests.sh                 # full tier-1 suite
#   scripts/run_tests.sh -L property     # just the seeded property harness
#
# Environment knobs (the CI matrix drives these; defaults reproduce the
# plain local run):
#   BUILD_TYPE=Release|RelWithDebInfo|Debug   CMake build type
#   BNCG_SANITIZE=ON|OFF|thread               ON: ASan+UBSan build (CI Sanitize
#     leg); thread: ThreadSanitizer build (CI ThreadSanitizer leg, run with
#     the -R filter of the concurrent suites)
#   BNCG_BUILD_DIR=path                       override the build directory
#     (default ./build for the plain config, ./build-<type>[-san|-tsan]
#     otherwise, so sanitized and plain object files never mix)
#   BNCG_CTEST_TIMEOUT=seconds                global per-test ceiling (default
#     600) — a backstop under the per-test TIMEOUT properties so a hung test
#     can never wedge the suite
#   BNCG_SIMD=scalar|avx2|avx512|auto         runtime SIMD dispatch cap,
#     inherited by every test binary (CI's Scalar leg sets scalar)
#   BNCG_THREADS=N                            process thread-pool width
#     (default hardware_concurrency)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_type="${BUILD_TYPE:-Release}"
sanitize="${BNCG_SANITIZE:-OFF}"

if [ -n "${BNCG_BUILD_DIR:-}" ]; then
  build_dir="${BNCG_BUILD_DIR}"
elif [ "${build_type}" = "Release" ] && [ "${sanitize}" = "OFF" ]; then
  build_dir="${repo_root}/build"
else
  suffix="$(echo "${build_type}" | tr '[:upper:]' '[:lower:]')"
  case "${sanitize}" in
    OFF) ;;
    thread) suffix="${suffix}-tsan" ;;
    *) suffix="${suffix}-san" ;;
  esac
  build_dir="${repo_root}/build-${suffix}"
fi

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE="${build_type}" \
  -DBNCG_SANITIZE="${sanitize}" >/dev/null
cmake --build "${build_dir}" -j "$(nproc)"

ctest_timeout="${BNCG_CTEST_TIMEOUT:-600}"
if [ "$#" -gt 0 ]; then
  ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)" \
    --timeout "${ctest_timeout}" "$@"
else
  ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)" \
    --timeout "${ctest_timeout}" -L tier1
fi
