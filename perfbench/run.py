#!/usr/bin/env python3
"""The repository benchmark: certificate time, memory and failures.

Builds perfbench/ (the bncg library plus the bncg_perfbench harness) with
CMake into $CARGO_TARGET_DIR (default .bench_build), runs one workload in a
fresh process and prints, as the last line of stdout, one JSON object with
the keys correct, attempted, failed and metrics.

  python3 perfbench/run.py --workload gnm-sum --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --all [--seed 1] [--seconds 10] [--trace 0|1]
  python3 perfbench/run.py --selftest [--seed 1]
  python3 perfbench/run.py --pin FIRST LAST [--workload NAME]

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a separate traced run (spans are written to <build>/work-*/trace-*.json
and kept there). --all runs every workload, one process each, and prints
a table. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["gnm-sum", "torus-max", "torus-max-service"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))


def build():
    """Configures (once) and builds the harness; returns the binary path."""
    for needed in ("CMakeLists.txt", os.path.join("src", "bncg.hpp")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            log(f"perfbench: {needed} missing: run from a bncg source checkout")
            sys.exit(2)
    out = build_dir()
    env = dict(os.environ, CCACHE_DISABLE="1", TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                os.remove(cache)  # configured from another checkout
    steps = []
    if not os.path.isfile(cache):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "bncg_perfbench", "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(f"perfbench: build step failed: {' '.join(step)}")
            sys.exit(2)
    return os.path.join(out, "bncg_perfbench")


def git_sha():
    """HEAD with -dirty for uncommitted changes; the checkout digest otherwise."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        env = dict(os.environ, GIT_OPTIONAL_LOCKS="0")
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, env=env,
                                capture_output=True, text=True)
        if head.returncode == 0 and status.returncode == 0:
            return head.stdout.strip() + ("-dirty" if status.stdout.strip() else "")
    return "unknown"


def source_digest():
    """sha256 over the library, build file and benchmark sources."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, name) for name in sorted(filenames)]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def run_binary(binary, args):
    """Runs the harness in ROOT with a private work directory; returns stdout."""
    workdir = os.path.relpath(os.path.join(build_dir(), f"work-{os.getpid()}"), ROOT)
    shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    cmd = [binary] + args + ["--refs", os.path.join(HERE, "reference"), "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        sys.exit(3)
    finally:
        # Keep only the span files of traced runs.
        full = os.path.join(ROOT, workdir)
        for name in os.listdir(full) if os.path.isdir(full) else []:
            if not name.startswith("trace-"):
                shutil.rmtree(os.path.join(full, name), ignore_errors=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        log(f"perfbench: bncg_perfbench exited with {proc.returncode}")
        sys.exit(proc.returncode if proc.returncode > 0 else 3)
    return proc.stdout


def run_workload(binary, workload, seed, seconds, trace):
    """One run in its own process. Returns (provenance, result, other lines)."""
    out = run_binary(binary, ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)])
    lines = out.splitlines()
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        log("perfbench: malformed result line")
        sys.exit(3)
    provenance = {}
    notes = []
    for line in lines[:-1]:
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
        else:
            notes.append(line)
    provenance.update(git_sha=git_sha(), source_digest=source_digest())
    record_dir = os.path.join(build_dir(), "results")
    os.makedirs(record_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    record = os.path.join(record_dir, f"{workload}-seed{seed}-trace{trace}-{stamp}.json")
    with open(record, "w", encoding="utf-8") as f:
        json.dump({"provenance": provenance, "notes": notes, "result": result}, f, indent=1)
    return provenance, result, notes


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--selftest", action="store_true", help="differential self-test")
    parser.add_argument("--pin", nargs=2, type=int, metavar=("FIRST", "LAST"),
                        help="rewrite reference/<workload>.cert for a seed range")
    args = parser.parse_args()

    binary = build()
    if args.selftest:
        sys.stdout.write(run_binary(binary, ["--selftest", "--seed", str(args.seed)]))
        return
    if args.pin:
        for workload in [args.workload] if args.workload else WORKLOADS:
            proc = subprocess.run([binary, "--pin", str(args.pin[0]), str(args.pin[1]),
                                   "--workload", workload], cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            if proc.returncode != 0:
                sys.exit(proc.returncode)
            with open(os.path.join(HERE, "reference", f"{workload}.cert"), "w",
                      encoding="utf-8") as f:
                f.write(proc.stdout)
            log(f"pinned {workload} seeds {args.pin[0]}..{args.pin[1]}")
        return
    if args.all:
        rows = []
        for workload in WORKLOADS:
            provenance, result, _ = run_workload(binary, workload, args.seed, args.seconds,
                                                 args.trace)
            rows.append((workload, provenance, result))
        for workload, provenance, result in rows:
            print(f"== {workload} seed {args.seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"fail_ratio={result['failed'] / result['attempted']:.4g} (ratio)")
            print(f"  provenance {json.dumps(provenance)}")
            for name, metric in result["metrics"].items():
                print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
        print(json.dumps({name: result for name, _, result in rows}))
        return
    if args.workload is None:
        parser.error("--workload, --all, --selftest or --pin is required")
    provenance, result, notes = run_workload(binary, args.workload, args.seed, args.seconds,
                                             args.trace)
    for line in notes:
        print(line)
    print(f"provenance {json.dumps(provenance)}")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
