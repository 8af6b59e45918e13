#!/usr/bin/env bash
# Exit-code taxonomy test of tools/bncg_certify (documented in --help):
#
#   0  certificate emitted (either verdict)
#   1  usage or environment error
#   2  coverage refusal: serve quarantined ranges, certificate withheld
#   3  wire/merge/handshake guard refusal
#   4  transport failure after bounded retries
#
# Each code is exercised through a real invocation: scripts and CI compose
# against these numbers (retry on 4, alert on 3, treat 2 as "rerun with
# more workers"), so a silent renumbering must fail tier-1 loudly.
#
# Usage: scripts/certify_exit_codes.sh [--bin PATH] [--keep-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

bin="${BNCG_CERTIFY_BIN:-}"
keep_dir=0
while [ "$#" -gt 0 ]; do
  case "$1" in
    --bin) bin="$2"; shift 2 ;;
    --keep-dir) keep_dir=1; shift ;;
    *) echo "certify_exit_codes: unknown option: $1" >&2; exit 2 ;;
  esac
done

if [ -z "$bin" ]; then
  build_dir="${BNCG_BUILD_DIR:-${repo_root}/build}"
  cmake -B "$build_dir" -S "$repo_root" >/dev/null
  cmake --build "$build_dir" --target bncg_certify -j "$(nproc)" >/dev/null
  bin="${build_dir}/bncg_certify"
fi
[ -x "$bin" ] || { echo "certify_exit_codes: not executable: $bin" >&2; exit 2; }

work_dir="$(mktemp -d "${TMPDIR:-/tmp}/bncg_exitcodes.XXXXXX")"
pids=()
cleanup() {
  for pid in "${pids[@]:-}"; do
    kill -KILL "$pid" 2>/dev/null || true
  done
  if [ "$keep_dir" -eq 1 ]; then
    echo "certify_exit_codes: scratch kept at $work_dir" >&2
  else
    rm -rf "$work_dir"
  fi
}
trap cleanup EXIT
trap 'trap - INT TERM; cleanup; exit 130' INT TERM

failures=0
expect_rc() {  # $1 = want, $2 = label, then the command
  local want="$1" label="$2" got=0
  shift 2
  "$@" >>"$work_dir/cmd.out" 2>>"$work_dir/cmd.log" || got=$?
  if [ "$got" -eq "$want" ]; then
    echo "certify_exit_codes: OK   exit $want — $label"
  else
    echo "certify_exit_codes: FAIL exit $got (want $want) — $label" >&2
    failures=$(( failures + 1 ))
  fi
}

graph="$work_dir/instance.edges"
"$bin" gen --n 24 --m 48 --seed 5 --out "$graph" 2>/dev/null

# --- exit 0: certificate emitted -------------------------------------------
expect_rc 0 "certify on a small instance" \
  "$bin" certify --graph "$graph"

# --- exit 1: usage / environment errors ------------------------------------
expect_rc 1 "unknown mode" "$bin" frobnicate
expect_rc 1 "unknown flag" "$bin" certify --graph "$graph" --frobnicate
expect_rc 1 "missing required flag" "$bin" certify
expect_rc 1 "unreadable graph file" "$bin" certify --graph "$work_dir/no-such-file"
printf '2 1\n0 1\n5\n' >"$work_dir/trailing.edges"
expect_rc 1 "graph file with trailing tokens" "$bin" certify --graph "$work_dir/trailing.edges"
expect_rc 1 "no mode at all" "$bin"
# A header claiming 2·10⁹ vertices is refused by the reader's guard before
# anything is allocated: exit 1 with that diagnosis, not a bad_alloc.
printf '2000000000 0\n' >"$work_dir/huge.edges"
expect_rc 1 "graph file whose header claims 2e9 vertices" \
  "$bin" certify --graph "$work_dir/huge.edges"
"$bin" certify --graph "$work_dir/huge.edges" >/dev/null 2>"$work_dir/huge.log" || true
if grep -q 'exceeds the supported maximum' "$work_dir/huge.log"; then
  echo "certify_exit_codes: OK   huge vertex count refused by the header guard"
else
  echo "certify_exit_codes: FAIL huge vertex count not refused by the header guard" >&2
  failures=$(( failures + 1 ))
fi
# The game is defined on connected graphs: a disconnected input is refused
# before any scan (exit 1, with that reason), never certified — by every
# mode that loads a graph to certify.
printf '3 1\n0 1\n' >"$work_dir/disconnected.edges"
expect_rc 1 "certify of a disconnected graph" \
  "$bin" certify --graph "$work_dir/disconnected.edges"
expect_rc 1 "worker range of a disconnected graph" \
  "$bin" worker --graph "$work_dir/disconnected.edges" --range 0:3 --shard-index 0 \
  --shard-count 1 --out "$work_dir/disconnected.shard"
expect_rc 1 "serve of a disconnected graph" \
  "$bin" serve --graph "$work_dir/disconnected.edges" --listen "unix:$work_dir/d.sock"
"$bin" certify --graph "$work_dir/disconnected.edges" >"$work_dir/disconnected.out" \
  2>"$work_dir/disconnected.log" || true
if grep -q 'disconnected graph .*: 2 components' "$work_dir/disconnected.log" &&
   ! grep -q 'verdict=' "$work_dir/disconnected.out"; then
  echo "certify_exit_codes: OK   disconnected graph refused with its reason, no verdict"
else
  echo "certify_exit_codes: FAIL disconnected graph not refused with its reason" >&2
  failures=$(( failures + 1 ))
fi
# The service modes obey the same taxonomy: a bad invocation is a one-line
# usage diagnostic and exit 1, never 0, a throw, or a late guard refusal.
expect_rc 1 "serve with an unknown flag" \
  "$bin" serve --graph "$graph" --listen "unix:$work_dir/x.sock" --frobnicate
expect_rc 1 "serve with a missing flag value" \
  "$bin" serve --graph "$graph" --listen
expect_rc 1 "serve with a zero lease" \
  "$bin" serve --graph "$graph" --listen "unix:$work_dir/x.sock" --lease-ms 0
expect_rc 1 "serve with a zero backoff" \
  "$bin" serve --graph "$graph" --listen "unix:$work_dir/x.sock" --backoff-ms 0
expect_rc 1 "serve --jobs with a bad spec key" \
  "$bin" serve --listen "unix:$work_dir/x.sock" --jobs "$graph,frobnicate"
expect_rc 1 "serve --jobs mode without jobs or submissions" \
  "$bin" serve --listen "unix:$work_dir/x.sock" --accept-submissions 0 --certs-dir "$work_dir/c"
expect_rc 1 "submit without a graph" "$bin" submit --connect "unix:$work_dir/x.sock"
expect_rc 1 "submit with an unknown flag" \
  "$bin" submit --connect "unix:$work_dir/x.sock" --graph "$graph" --frobnicate
expect_rc 1 "status without a dispatcher address" "$bin" status
expect_rc 1 "status with an unknown flag" \
  "$bin" status --connect "unix:$work_dir/x.sock" --frobnicate
usage_line_count="$("$bin" certify --graph "$graph" --frobnicate 2>&1 >/dev/null | head -1 | grep -c '^bncg_certify: ' || true)"
if [ "$usage_line_count" -ne 1 ]; then
  echo "certify_exit_codes: FAIL usage error lacks the one-line stderr diagnostic" >&2
  failures=$(( failures + 1 ))
else
  echo "certify_exit_codes: OK   usage errors lead with a one-line diagnostic"
fi

# --- exit 3: wire/merge/handshake guard refusals ----------------------------
other="$work_dir/other.edges"
"$bin" gen --n 24 --m 48 --seed 6 --out "$other" 2>/dev/null
"$bin" worker --graph "$graph" --range 0:12 --shard-index 0 --shard-count 2 \
  --out "$work_dir/a.shard" 2>/dev/null
"$bin" worker --graph "$other" --range 12:24 --shard-index 1 --shard-count 2 \
  --out "$work_dir/b.shard" 2>/dev/null
expect_rc 3 "merge of shards from two different instances" \
  "$bin" merge "$work_dir/a.shard" "$work_dir/b.shard"

printf 'garbage, not a shard\n' >"$work_dir/garbage.shard"
expect_rc 3 "merge of a corrupt shard file" \
  "$bin" merge "$work_dir/garbage.shard"

# Handshake refusal: a worker whose loaded instance differs from the served
# one is turned away at connect (and must report exit 3, not a transport
# failure — the network was fine, the data was wrong).
sock="unix:$work_dir/serve.sock"
"$bin" serve --graph "$graph" --listen "$sock" --shards 2 --lease-ms 8000 \
  >"$work_dir/served.txt" 2>"$work_dir/serve.log" &
serve_pid=$!
pids+=("$serve_pid")
sleep 0.3
expect_rc 3 "handshake refusal of a wrong-instance worker" \
  "$bin" worker --graph "$other" --connect "$sock"
# Let an honest worker finish the run so the dispatcher exits 0 cleanly.
"$bin" worker --graph "$graph" --connect "$sock" 2>>"$work_dir/cmd.log" || true
serve_rc=0
wait "$serve_pid" || serve_rc=$?
if [ "$serve_rc" -ne 0 ]; then
  echo "certify_exit_codes: FAIL serve exited $serve_rc (want 0) after refusal test" >&2
  failures=$(( failures + 1 ))
else
  echo "certify_exit_codes: OK   exit 0 — serve completed by the honest worker"
fi

# --- exit 2: coverage refusal ----------------------------------------------
# One range, zero retry budget, and a worker that corrupts every result:
# the only range quarantines on the first strike and the dispatcher must
# refuse (exit 2) rather than guess.
sock2="unix:$work_dir/refuse.sock"
"$bin" serve --graph "$graph" --listen "$sock2" --shards 1 --max-retries 0 \
  --lease-ms 8000 >"$work_dir/refused.txt" 2>"$work_dir/refuse.log" &
serve_pid=$!
pids+=("$serve_pid")
sleep 0.3
"$bin" chaos-worker --graph "$graph" --connect "$sock2" --chaos corrupt-all \
  2>>"$work_dir/cmd.log" || true
serve_rc=0
wait "$serve_pid" || serve_rc=$?
if [ "$serve_rc" -ne 2 ]; then
  echo "certify_exit_codes: FAIL serve exited $serve_rc (want 2) on quarantine" >&2
  failures=$(( failures + 1 ))
elif [ -s "$work_dir/refused.txt" ]; then
  echo "certify_exit_codes: FAIL refusal printed a certificate (must withhold)" >&2
  failures=$(( failures + 1 ))
else
  echo "certify_exit_codes: OK   exit 2 — coverage refusal withheld the certificate"
fi

# --- exit 0 again: the session control clients against a live dispatcher ----
sock3="unix:$work_dir/mux.sock"
"$bin" serve --listen "$sock3" --accept-submissions 1 --lease-ms 8000 \
  --certs-dir "$work_dir/mux-certs" >"$work_dir/mux.txt" 2>"$work_dir/mux.log" &
serve_pid=$!
pids+=("$serve_pid")
sleep 0.3
expect_rc 0 "submit to a live dispatcher" \
  "$bin" submit --connect "$sock3" --graph "$graph"
expect_rc 0 "status of a live dispatcher" \
  "$bin" status --connect "$sock3"
"$bin" worker --graph "$graph" --connect "$sock3" 2>>"$work_dir/cmd.log" || true
serve_rc=0
wait "$serve_pid" || serve_rc=$?
if [ "$serve_rc" -ne 0 ]; then
  echo "certify_exit_codes: FAIL session serve exited $serve_rc (want 0)" >&2
  failures=$(( failures + 1 ))
else
  echo "certify_exit_codes: OK   exit 0 — submitted session served to completion"
fi

# --- exit 4: transport failure after bounded retries ------------------------
expect_rc 4 "worker connecting to a dead address" \
  "$bin" worker --graph "$graph" --connect "unix:$work_dir/nobody-home.sock" \
    --connect-retries 1 --connect-backoff-ms 10
expect_rc 4 "submit to a dead address" \
  "$bin" submit --graph "$graph" --connect "unix:$work_dir/nobody-home.sock" \
    --connect-retries 1 --connect-backoff-ms 10
expect_rc 4 "status of a dead address" \
  "$bin" status --connect "unix:$work_dir/nobody-home.sock" \
    --connect-retries 0 --connect-backoff-ms 10

# --- the taxonomy must be documented in --help ------------------------------
"$bin" --help >"$work_dir/help.txt" 2>&1 || true
for phrase in "exit codes:" "transport failure"; do
  if ! grep -qi "$phrase" "$work_dir/help.txt"; then
    echo "certify_exit_codes: FAIL --help does not document \"$phrase\"" >&2
    failures=$(( failures + 1 ))
  fi
done

if [ "$failures" -ne 0 ]; then
  echo "certify_exit_codes: $failures failure(s)" >&2
  exit 1
fi
echo "certify_exit_codes: OK"
