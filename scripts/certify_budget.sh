#!/usr/bin/env bash
# Million-scale memory-budget smoke (DESIGN.md §16, acceptance gate of the
# budgeted distance provider).
#
# Certifies an n = 2k² rotated-torus instance (k = 256 → n = 2^17 = 131072
# by default) END TO END under a hard memory cap that the dense O(n²)
# distance path provably cannot fit: the u16 slab alone would take
# 2·n² = 32 GiB at the default size, while this run is capped at 4 GiB of
# address space and asserted to stay under the RSS budget. Two legs:
#
#   REFUTED leg — the same torus with agent 0's first edge rewired to the
#     antipode (`gen --perturb`). With --stop-on-violation the certifier
#     must find the witness at agent 0, so the leg is a full end-to-end
#     certify (load → budgeted scans → witness → certificate) that finishes
#     in seconds at any n. The witness agent is asserted.
#
#   CLEAN leg — a worker shard over agents [0, AGENTS) of the pristine
#     torus under the same budget, asserted violation-free. This prices the
#     real per-agent equilibrium scan (the far-set reach filter); the slice
#     size keeps the smoke inside a tier-1 timeout on a single core, where
#     the full 131072-agent sweep measures ≈ 0.6 s/agent ≈ 22 h. The full
#     sweep is the same command with CERTIFY_BUDGET_AGENTS=131072 (plus a
#     dispatcher fan-out across real cores, scripts/certify_fanout.sh).
#
# Memory enforcement: every certifier process runs under `ulimit -v` (the
# cap is HARD — an allocation past it aborts the run), and peak RSS is
# measured via GNU /usr/bin/time -v when present, else by polling the
# child's /proc VmHWM. Peak RSS must stay under --rss-cap-kb.
#
# Usage: scripts/certify_budget.sh [options]
#   --k K              torus parameter (default 256, n = 2k² = 131072)
#   --mem-budget B     per-lane distance-row budget (default 64M)
#   --agents N         clean-leg agent count (default 12)
#   --rss-cap-kb KB    peak-RSS assertion, also the ulimit -v cap
#                      (default 4194304 = 4 GiB)
#   --bin PATH         bncg_certify binary (default: $BNCG_CERTIFY_BIN, else
#                      build it into ${BNCG_BUILD_DIR:-<repo>/build})
#   --keep-dir         keep the scratch directory (prints its path)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

k="${CERTIFY_BUDGET_K:-256}"
mem_budget="${CERTIFY_BUDGET_MEM:-64M}"
agents="${CERTIFY_BUDGET_AGENTS:-12}"
rss_cap_kb="${CERTIFY_BUDGET_RSS_KB:-4194304}"
bin="${BNCG_CERTIFY_BIN:-}"
keep_dir=0

while [ "$#" -gt 0 ]; do
  case "$1" in
    --k) k="$2"; shift 2 ;;
    --mem-budget) mem_budget="$2"; shift 2 ;;
    --agents) agents="$2"; shift 2 ;;
    --rss-cap-kb) rss_cap_kb="$2"; shift 2 ;;
    --bin) bin="$2"; shift 2 ;;
    --keep-dir) keep_dir=1; shift ;;
    *) echo "certify_budget: unknown option: $1" >&2; exit 2 ;;
  esac
done
for check in "k=$k" "agents=$agents" "rss_cap_kb=$rss_cap_kb"; do
  case "${check#*=}" in
    ''|*[!0-9]*|0) echo "certify_budget: ${check%%=*} must be a positive integer" >&2; exit 2 ;;
  esac
done

if [ -z "$bin" ]; then
  build_dir="${BNCG_BUILD_DIR:-${repo_root}/build}"
  cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$build_dir" -j "$(nproc)" --target bncg_certify >/dev/null
  bin="$build_dir/bncg_certify"
fi
[ -x "$bin" ] || { echo "certify_budget: not executable: $bin" >&2; exit 2; }

work="$(mktemp -d "${TMPDIR:-/tmp}/certify_budget.XXXXXX")"
cleanup() {
  if [ "$keep_dir" -eq 1 ]; then
    echo "certify_budget: scratch kept at $work"
  else
    rm -rf "$work"
  fi
}
trap cleanup EXIT

# Sanitized binaries reserve terabytes of shadow address space and inflate
# RSS, so the CI sanitize leg keeps the two certification legs (verdict
# correctness) but skips the memory enforcement — the memory claim is a
# Release-build property.
enforce_mem=1
[ "${BNCG_SANITIZE:-OFF}" = "OFF" ] || enforce_mem=0

# run_capped NAME CMD...: run CMD under `ulimit -v $rss_cap_kb`, capture
# stdout/stderr in $work/NAME.{out,err}, and leave peak RSS (KB) in
# $work/NAME.rss. Fails the script if CMD fails or RSS exceeds the cap.
run_capped() {
  name="$1"; shift
  peak=0
  vcap="$rss_cap_kb"
  [ "$enforce_mem" -eq 1 ] || vcap=unlimited
  if [ -x /usr/bin/time ] && /usr/bin/time -v true >/dev/null 2>&1; then
    ( ulimit -v "$vcap"
      exec /usr/bin/time -v -o "$work/$name.time" "$@" \
        > "$work/$name.out" 2> "$work/$name.err" ) || {
      echo "certify_budget: $name failed:" >&2
      cat "$work/$name.err" >&2
      exit 1
    }
    peak="$(awk -F': ' '/Maximum resident set size/ {print $2}' "$work/$name.time")"
  else
    # No GNU time on this host: enforce via ulimit and sample the child's
    # VmHWM (monotone high-water mark, so the last sample is the peak).
    ( ulimit -v "$vcap"
      exec "$@" > "$work/$name.out" 2> "$work/$name.err" ) &
    pid=$!
    while kill -0 "$pid" 2>/dev/null; do
      hwm="$(awk '/VmHWM/ {print $2}' "/proc/$pid/status" 2>/dev/null || true)"
      if [ -n "${hwm:-}" ] && [ "$hwm" -gt "$peak" ]; then peak="$hwm"; fi
      sleep 0.05
    done
    wait "$pid" || {
      echo "certify_budget: $name failed:" >&2
      cat "$work/$name.err" >&2
      exit 1
    }
  fi
  echo "${peak:-0}" > "$work/$name.rss"
  if [ "$enforce_mem" -eq 1 ] && [ "${peak:-0}" -gt "$rss_cap_kb" ]; then
    echo "certify_budget: $name peak RSS ${peak} KB exceeds cap ${rss_cap_kb} KB" >&2
    exit 1
  fi
}

n=$(( 2 * k * k ))
dense_mib=$(( 2 * n / 1024 * n / 1024 ))
echo "certify_budget: n=$n (k=$k), mem budget $mem_budget, RSS cap ${rss_cap_kb} KB" \
     "(dense u16 slab would need ~${dense_mib} MiB)"

"$bin" gen --family torus --k "$k" --out "$work/torus.bncg" 2> "$work/gen.err"
"$bin" gen --family torus --k "$k" --perturb --out "$work/torus_perturbed.bncg" \
  2> "$work/gen_perturbed.err"

# --- REFUTED leg: full end-to-end certify of the perturbed instance. -------
run_capped refuted "$bin" certify --graph "$work/torus_perturbed.bncg" \
  --model max --stop-on-violation --mem-budget "$mem_budget" --shards 1
grep -q '^verdict=VIOLATED' "$work/refuted.out" || {
  echo "certify_budget: perturbed torus was not refuted:" >&2
  cat "$work/refuted.out" >&2
  exit 1
}
grep -q '^witness agent=0 ' "$work/refuted.out" || {
  echo "certify_budget: witness is not the perturbed agent 0:" >&2
  cat "$work/refuted.out" >&2
  exit 1
}
echo "certify_budget: REFUTED leg ok (witness at agent 0," \
     "peak RSS $(cat "$work/refuted.rss") KB)"

# --- CLEAN leg: pristine-torus worker shard under the same budget. ---------
run_capped clean "$bin" worker --graph "$work/torus.bncg" \
  --range "0:$agents" --shard-index 0 --shard-count 1 \
  --model max --include-deletions --mem-budget "$mem_budget" \
  --out "$work/clean.shard"
grep -q ' clean ' "$work/clean.err" || {
  echo "certify_budget: pristine torus shard [0, $agents) was not clean:" >&2
  cat "$work/clean.err" >&2
  exit 1
}
echo "certify_budget: CLEAN leg ok (agents [0, $agents) violation-free," \
     "peak RSS $(cat "$work/clean.rss") KB)"

echo "certify_budget: OK"
