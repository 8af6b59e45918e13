#!/usr/bin/env bash
# Fault-injection harness of the certification service (DESIGN.md §12).
#
# Drives real bncg_certify processes through three scripted disasters and
# asserts the one property the service guarantees: the certificate it
# emits — when it emits one — is byte-identical to single-process
# `certify`, no matter which workers crashed, hung, lied, or died.
#
# Scenarios (--scenario):
#   mixed        serve + a pool of healthy workers alongside seeded chaos
#                workers (crash mid-range / hang past the lease / one
#                bit-flipped result / double-sends); asserts serve exits 0
#                and the served certificate diffs clean against certify.
#   resume       serve with a journal and a deliberately slow worker,
#                SIGKILL the dispatcher once >= 2 ranges are journaled,
#                re-serve with --resume; asserts exit 0, certificate
#                parity, that the pre-kill record files were not rewritten
#                (checksums unchanged — resumed ranges are recomputed
#                zero times), and that the dispatcher logged resuming them.
#   worker-kill  SIGKILL a file-mode worker mid-run; asserts the crash-safe
#                tmp+rename write left NO final shard file behind and that
#                merge refuses the missing shard nonzero without printing
#                any verdict.
#   sessions     one dispatcher multiplexing two jobs over two instances
#                while crash/hang/corrupt/duplicate chaos workers interleave
#                with healthy ones on both; asserts both session
#                certificates diff clean against single-process certify.
#                A second pass pins a corrupt-all worker on session 2 with a
#                zero retry budget: session 2 must refuse (exit 2) while
#                session 1's certificate stays byte-identical — quarantine
#                never poisons a sibling.
#
# Usage: scripts/certify_chaos.sh --scenario mixed|resume|worker-kill|sessions [options]
#   --bin PATH       bncg_certify binary (default: $BNCG_CERTIFY_BIN, else
#                    build it into ${BNCG_BUILD_DIR:-<repo>/build})
#   --n N            vertices (scenario-specific default)
#   --m M            edges (default 2n; worker-kill defaults to 4n)
#   --seed S         instance seed (default 1)
#   --shards K       serve-side range count (default 6; resume: 8)
#   --healthy N      healthy connected workers in `mixed` (default 2)
#   --crash N        crashing chaos workers in `mixed` (default 1)
#   --hang N         hanging chaos workers in `mixed` (default 1)
#   --corrupt N      one-bit-flip chaos workers in `mixed` (default 1)
#   --duplicate N    double-send chaos workers in `mixed` (default 1)
#   --lease-ms MS    serve lease deadline (default 4000 — generous so slow
#                    sanitizer CI never quarantines a healthy worker)
#   --keep-dir       keep the scratch directory (prints its path)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

scenario=""
bin="${BNCG_CERTIFY_BIN:-}"
n=""
m=""
seed=1
shards=""
healthy=2
crash=1
hang=1
corrupt=1
duplicate=1
lease_ms=4000
keep_dir=0

while [ "$#" -gt 0 ]; do
  case "$1" in
    --scenario) scenario="$2"; shift 2 ;;
    --bin) bin="$2"; shift 2 ;;
    --n) n="$2"; shift 2 ;;
    --m) m="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --shards) shards="$2"; shift 2 ;;
    --healthy) healthy="$2"; shift 2 ;;
    --crash) crash="$2"; shift 2 ;;
    --hang) hang="$2"; shift 2 ;;
    --corrupt) corrupt="$2"; shift 2 ;;
    --duplicate) duplicate="$2"; shift 2 ;;
    --lease-ms) lease_ms="$2"; shift 2 ;;
    --keep-dir) keep_dir=1; shift ;;
    *) echo "certify_chaos: unknown option: $1" >&2; exit 2 ;;
  esac
done
case "$scenario" in
  mixed|resume|worker-kill|sessions) ;;
  *) echo "certify_chaos: --scenario must be mixed, resume, worker-kill, or sessions" >&2; exit 2 ;;
esac

if [ -z "$bin" ]; then
  build_dir="${BNCG_BUILD_DIR:-${repo_root}/build}"
  cmake -B "$build_dir" -S "$repo_root" >/dev/null
  cmake --build "$build_dir" --target bncg_certify -j "$(nproc)" >/dev/null
  bin="${build_dir}/bncg_certify"
fi
[ -x "$bin" ] || { echo "certify_chaos: not executable: $bin" >&2; exit 2; }

work_dir="$(mktemp -d "${TMPDIR:-/tmp}/bncg_chaos.XXXXXX")"
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do
    kill -KILL "$pid" 2>/dev/null || true
    # Session spool directories are removed by the dispatcher's own sink
    # destructors on a clean exit; a SIGKILL'd dispatcher (the resume
    # scenario's whole point, or a timeout) cannot, so the trap sweeps the
    # pid-keyed spool of every process this script started.
    rm -rf "${TMPDIR:-/tmp}/bncg_spool_${pid}"
  done
  for pid in "${pids[@]:-}"; do
    wait "$pid" 2>/dev/null || true  # reap, silencing job-kill notices
  done
  if [ "$keep_dir" -eq 1 ]; then
    echo "certify_chaos: scratch kept at $work_dir" >&2
  else
    rm -rf "$work_dir"
  fi
}
trap cleanup EXIT
trap 'trap - INT TERM; cleanup; exit 130' INT TERM

graph="$work_dir/instance.edges"
sock="unix:$work_dir/serve.sock"

gen_instance() {
  if ! "$bin" gen --n "$n" --m "$m" --seed "$seed" --out "$graph" 2>"$work_dir/gen.log"; then
    echo "certify_chaos: instance generation failed (n=$n m=$m seed=$seed)" >&2
    cat "$work_dir/gen.log" >&2 || true
    exit 1
  fi
}

reference_certificate() {
  if ! "$bin" certify --graph "$graph" >"$work_dir/reference.txt" 2>/dev/null; then
    echo "certify_chaos: single-process certify failed" >&2
    exit 1
  fi
}

expect_parity() {  # $1 = served certificate file, $2 = context
  if ! diff -u "$work_dir/reference.txt" "$1"; then
    echo "certify_chaos: MISMATCH between served and single-process certificate ($2)" >&2
    exit 1
  fi
}

launch_chaos_workers() {  # background chaos/healthy pool against $sock
  # Optional argument: the graph the pool loads (default: the scenario's
  # single instance) — the sessions scenario runs one pool per instance.
  local target="${1:-$graph}"
  local i
  for (( i = 0; i < crash; i++ )); do
    timeout 240 "$bin" chaos-worker --graph "$target" --connect "$sock" \
      --chaos crash --chaos-seed $(( seed + i )) 2>>"$work_dir/chaos.log" &
    pids+=($!)
  done
  for (( i = 0; i < hang; i++ )); do
    timeout 240 "$bin" chaos-worker --graph "$target" --connect "$sock" \
      --chaos hang --chaos-seed $(( seed + 100 + i )) 2>>"$work_dir/chaos.log" &
    pids+=($!)
  done
  for (( i = 0; i < corrupt; i++ )); do
    timeout 240 "$bin" chaos-worker --graph "$target" --connect "$sock" \
      --chaos corrupt --chaos-seed $(( seed + 200 + i )) 2>>"$work_dir/chaos.log" &
    pids+=($!)
  done
  for (( i = 0; i < duplicate; i++ )); do
    timeout 240 "$bin" chaos-worker --graph "$target" --connect "$sock" \
      --chaos duplicate --chaos-seed $(( seed + 300 + i )) 2>>"$work_dir/chaos.log" &
    pids+=($!)
  done
  for (( i = 0; i < healthy; i++ )); do
    timeout 240 "$bin" worker --graph "$target" --connect "$sock" \
      2>>"$work_dir/healthy.log" &
    pids+=($!)
  done
}

scenario_mixed() {
  n="${n:-96}"
  m="${m:-$(( 2 * n ))}"
  shards="${shards:-6}"
  gen_instance
  reference_certificate

  timeout 240 "$bin" serve --graph "$graph" --listen "$sock" --shards "$shards" \
    --lease-ms "$lease_ms" --backoff-ms 20 \
    >"$work_dir/served.txt" 2>"$work_dir/serve.log" &
  local serve_pid=$!
  pids+=("$serve_pid")
  sleep 0.3
  launch_chaos_workers

  local serve_rc=0
  wait "$serve_pid" || serve_rc=$?
  # Chaos workers exit however they exit (crash mode _Exits 12, dropped
  # connections exit 4); only the dispatcher's verdict is the contract.
  if [ "$serve_rc" -ne 0 ]; then
    echo "certify_chaos: serve exited $serve_rc (want 0) under mixed chaos" >&2
    cat "$work_dir/serve.log" >&2 || true
    exit 1
  fi
  expect_parity "$work_dir/served.txt" "mixed chaos"
  grep -E "serve: done complete=1" "$work_dir/serve.log" >/dev/null || {
    echo "certify_chaos: missing completion stats line in serve log" >&2
    exit 1
  }
  echo "certify_chaos: mixed OK — $(grep -oE 'redispatches=[0-9]+ expired=[0-9]+ disconnects=[0-9]+ corrupt=[0-9]+ duplicates=[0-9]+' "$work_dir/serve.log" | head -1)"
}

scenario_resume() {
  n="${n:-64}"
  m="${m:-$(( 2 * n ))}"
  shards="${shards:-8}"
  local journal="$work_dir/journal"
  gen_instance
  reference_certificate

  # Phase 1: a journaling dispatcher fed by one deliberately slow worker;
  # SIGKILL the dispatcher the moment two ranges hit the journal. No
  # `timeout` wrapper here — the kill must land on the dispatcher itself,
  # not a wrapper (the record-count spin below is the watchdog).
  "$bin" serve --graph "$graph" --listen "$sock" --shards "$shards" \
    --lease-ms 8000 --journal "$journal" \
    >"$work_dir/partial.txt" 2>"$work_dir/serve1.log" &
  local serve_pid=$!
  pids+=("$serve_pid")
  sleep 0.3
  timeout 240 "$bin" chaos-worker --graph "$graph" --connect "$sock" \
    --chaos slow --chaos-delay-ms 300 2>>"$work_dir/chaos.log" &
  pids+=($!)

  local spins=0
  while [ "$(find "$journal" -name 'range_*.shard' 2>/dev/null | wc -l)" -lt 2 ]; do
    sleep 0.05
    spins=$(( spins + 1 ))
    if [ "$spins" -gt 1200 ]; then
      echo "certify_chaos: journal never reached 2 records" >&2
      exit 1
    fi
  done
  kill -KILL "$serve_pid"
  wait "$serve_pid" 2>/dev/null || true

  local prekill_records
  prekill_records="$(find "$journal" -name 'range_*.shard' | sort)"
  local prekill_count
  prekill_count="$(echo "$prekill_records" | wc -l)"
  # shellcheck disable=SC2086
  cksum $prekill_records >"$work_dir/prekill.cksum"
  echo "certify_chaos: dispatcher killed with $prekill_count journaled range(s)"

  # Phase 2: resume from the journal with an honest worker; the killed
  # run's records must be reused verbatim, never recomputed or rewritten.
  timeout 240 "$bin" serve --graph "$graph" --listen "$sock" --shards "$shards" \
    --lease-ms "$lease_ms" --journal "$journal" --resume \
    >"$work_dir/resumed.txt" 2>"$work_dir/serve2.log" &
  serve_pid=$!
  pids+=("$serve_pid")
  sleep 0.3
  timeout 240 "$bin" worker --graph "$graph" --connect "$sock" \
    2>>"$work_dir/healthy.log" &
  pids+=($!)

  local serve_rc=0
  wait "$serve_pid" || serve_rc=$?
  if [ "$serve_rc" -ne 0 ]; then
    echo "certify_chaos: resumed serve exited $serve_rc (want 0)" >&2
    cat "$work_dir/serve2.log" >&2 || true
    exit 1
  fi
  expect_parity "$work_dir/resumed.txt" "journal resume"
  grep -E "serve: journal resumed=${prekill_count}/${shards}" "$work_dir/serve2.log" >/dev/null || {
    echo "certify_chaos: dispatcher did not resume the $prekill_count journaled range(s)" >&2
    cat "$work_dir/serve2.log" >&2 || true
    exit 1
  }
  # shellcheck disable=SC2086
  cksum $prekill_records >"$work_dir/postrun.cksum"
  if ! diff "$work_dir/prekill.cksum" "$work_dir/postrun.cksum"; then
    echo "certify_chaos: resume rewrote pre-kill journal records (must reuse, not recompute)" >&2
    exit 1
  fi
  echo "certify_chaos: resume OK — $prekill_count range(s) reused verbatim, certificate identical"
}

scenario_worker_kill() {
  # The worker must still be running at the kill 0.2 s in: a serial sum
  # range over G(2048, 8192) takes ~0.7 s on one lane (G(1024, 4096), the
  # earlier default, finishes in ~0.13 s since the relief bound).
  n="${n:-2048}"
  m="${m:-$(( 4 * n ))}"
  gen_instance

  # No `timeout` wrapper: the SIGKILL below must hit the worker process
  # itself, not a wrapper that would orphan it mid-run.
  local shard="$work_dir/victim.shard"
  "$bin" worker --graph "$graph" --range "0:$n" \
    --shard-index 0 --shard-count 1 --out "$shard" 2>"$work_dir/victim.log" &
  local worker_pid=$!
  pids+=("$worker_pid")
  sleep 0.2
  if ! kill -0 "$worker_pid" 2>/dev/null; then
    echo "certify_chaos: worker finished before the kill — raise --n" >&2
    exit 1
  fi
  kill -KILL "$worker_pid"
  wait "$worker_pid" 2>/dev/null || true

  # The crash-safe write (tmp + rename) guarantees the final path appears
  # only complete: a killed worker must leave nothing at it.
  if [ -e "$shard" ]; then
    echo "certify_chaos: killed worker left a shard file at $shard" >&2
    exit 1
  fi

  local merge_rc=0
  "$bin" merge "$shard" >"$work_dir/merge.out" 2>"$work_dir/merge.log" || merge_rc=$?
  if [ "$merge_rc" -eq 0 ]; then
    echo "certify_chaos: merge accepted a missing shard (must refuse)" >&2
    exit 1
  fi
  if grep -q "verdict=" "$work_dir/merge.out"; then
    echo "certify_chaos: merge printed a verdict despite the missing shard" >&2
    exit 1
  fi
  echo "certify_chaos: worker-kill OK — no partial shard file, merge refused (exit $merge_rc)"
}

scenario_sessions() {
  n="${n:-96}"
  m="${m:-$(( 2 * n ))}"
  shards="${shards:-6}"
  local graph_a="$work_dir/a.edges"
  local graph_b="$work_dir/b.edges"
  "$bin" gen --n "$n" --m "$m" --seed "$seed" --out "$graph_a" 2>/dev/null
  "$bin" gen --n "$n" --m "$m" --seed "$(( seed + 1 ))" --out "$graph_b" 2>/dev/null
  "$bin" certify --graph "$graph_a" >"$work_dir/ref_a.txt" 2>/dev/null
  "$bin" certify --graph "$graph_b" --model max >"$work_dir/ref_b.txt" 2>/dev/null

  # Pass 1: one dispatcher, two sessions (different instances AND run
  # configs), a full chaos pool interleaved on EACH — both certificates
  # must come out byte-identical to single-process certify.
  timeout 240 "$bin" serve --listen "$sock" \
    --jobs "$graph_a" --jobs "$graph_b,model=max" --shards "$shards" \
    --lease-ms "$lease_ms" --backoff-ms 20 --certs-dir "$work_dir/certs1" \
    >"$work_dir/served1.txt" 2>"$work_dir/serve1.log" &
  local serve_pid=$!
  pids+=("$serve_pid")
  sleep 0.3
  launch_chaos_workers "$graph_a"
  launch_chaos_workers "$graph_b"

  local serve_rc=0
  wait "$serve_pid" || serve_rc=$?
  if [ "$serve_rc" -ne 0 ]; then
    echo "certify_chaos: sessions serve exited $serve_rc (want 0) under chaos" >&2
    cat "$work_dir/serve1.log" >&2 || true
    exit 1
  fi
  expect_parity_file() {  # $1 = reference, $2 = served cert, $3 = context
    if ! diff -u "$1" "$2"; then
      echo "certify_chaos: MISMATCH between served and single-process certificate ($3)" >&2
      exit 1
    fi
  }
  expect_parity_file "$work_dir/ref_a.txt" "$work_dir/certs1/session_1.cert" "session 1, chaos"
  expect_parity_file "$work_dir/ref_b.txt" "$work_dir/certs1/session_2.cert" "session 2, chaos"
  grep -q "sessions_completed=2 sessions_refused=0" "$work_dir/serve1.log" || {
    echo "certify_chaos: missing two-session completion stats in serve log" >&2
    cat "$work_dir/serve1.log" >&2 || true
    exit 1
  }
  echo "certify_chaos: sessions pass 1 OK — both certificates byte-identical under chaos"

  # Pass 2: quarantine isolation. Session 2 gets ONLY a corrupt-all worker
  # and a zero retry budget (its single range quarantines on the first
  # strike); session 1 gets honest workers. The dispatcher must refuse
  # session 2 (exit 2, no certificate file) while session 1's certificate
  # stays byte-identical — a poisoned sibling never leaks.
  local sock2="unix:$work_dir/isolate.sock"
  timeout 240 "$bin" serve --listen "$sock2" \
    --jobs "$graph_a" --jobs "$graph_b,model=max,shards=1" --shards "$shards" \
    --max-retries 0 --lease-ms "$lease_ms" --backoff-ms 20 \
    --certs-dir "$work_dir/certs2" \
    >"$work_dir/served2.txt" 2>"$work_dir/serve2.log" &
  serve_pid=$!
  pids+=("$serve_pid")
  sleep 0.3
  local i
  for (( i = 0; i < healthy; i++ )); do
    timeout 240 "$bin" worker --graph "$graph_a" --connect "$sock2" \
      2>>"$work_dir/healthy.log" &
    pids+=($!)
  done
  timeout 240 "$bin" chaos-worker --graph "$graph_b" --connect "$sock2" \
    --chaos corrupt-all --chaos-seed "$seed" 2>>"$work_dir/chaos.log" &
  pids+=($!)

  serve_rc=0
  wait "$serve_pid" || serve_rc=$?
  if [ "$serve_rc" -ne 2 ]; then
    echo "certify_chaos: isolation serve exited $serve_rc (want 2: one session refused)" >&2
    cat "$work_dir/serve2.log" >&2 || true
    exit 1
  fi
  if [ -e "$work_dir/certs2/session_2.cert" ]; then
    echo "certify_chaos: refused session 2 still wrote a certificate (must withhold)" >&2
    exit 1
  fi
  expect_parity_file "$work_dir/ref_a.txt" "$work_dir/certs2/session_1.cert" \
    "session 1, sibling quarantined"
  echo "certify_chaos: sessions pass 2 OK — quarantine stayed inside its own session"
}

case "$scenario" in
  mixed) scenario_mixed ;;
  resume) scenario_resume ;;
  worker-kill) scenario_worker_kill ;;
  sessions) scenario_sessions ;;
esac
echo "certify_chaos: OK"
