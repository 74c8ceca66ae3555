#!/usr/bin/env python3
"""The repository benchmark: build, run, check and report.

One workload (the command BENCHMARK.json names, with its arguments):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, end-to-end and traced, plus the benchmark's own tests:

    python3 perfbench/run.py [--seed N] [--seconds S]

Run from the root of a checkout. The fqbert library, fqbert_cli and
the harness are built from the checkout's sources into .bench_build/
(the first run builds; later runs reuse it). Each run prints its metrics
by name and unit and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A full record (stamps, sample counts, checks) is written under
.bench_build/records/. The exit code is nonzero when the build fails or
any check fails (logit mismatch, accounting imbalance, too few samples
for a percentile, a load generator that fell behind in every attempt).

METRICS.md beside this file lists every metric, its unit and layer, and
which end-to-end metric each per-layer metric should move on which
workload.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("engine-seqmix", "wire-steady", "proxy-bursty")
HARNESS_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def default_seconds():
    try:
        with open(ROOT / "BENCHMARK.json") as f:
            return int(json.load(f)["run_seconds"])
    except (OSError, ValueError, KeyError):
        return 10


def build():
    """Configure once, then build the harness, its self-test and the CLI."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("perfbench: no fqbert sources next to perfbench/ (need "
            "CMakeLists.txt and src/ at the checkout root)")
        return None
    cmake_dir = BUILD / "cmake"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    build_log = BUILD / "build.log"
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", str(cmake_dir), "-j",
                  str(os.cpu_count() or 4), "--target", "perfbench_harness",
                  "perfbench_selftest", "fqbert_cli"])
    with open(build_log, "w") as out:
        for cmd in steps:
            left = max(1.0, deadline - time.monotonic())
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=left).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                out.flush()
                log("perfbench: build failed: " + " ".join(cmd))
                log(build_log.read_text()[-4000:])
                return None
    return cmake_dir


def stop_group(pgid):
    """SIGKILL a process group and wait until none of it is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_harness(cmake_dir, workload, seed, seconds, trace):
    """Run one workload; returns (exit code, stdout text)."""
    work = BUILD / "work" / f"{workload}-{os.getpid()}-{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    records = BUILD / "records"
    records.mkdir(exist_ok=True)
    cmd = [str(cmake_dir / "perfbench_harness"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--cli", str(cmake_dir / "fqbert" / "fqbert_cli"),
           "--work", str(work),
           "--record", str(records / f"{workload}-seed{seed}-trace{trace}.json")]
    # The harness leads its own process group, so the servers it spawns
    # go down with it on a timeout.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
        rc = proc.returncode
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        out, _ = proc.communicate()
        log(f"perfbench: {workload} did not finish in {HARNESS_TIMEOUT_S} s")
        rc = 1
    stop_group(proc.pid)
    if rc == 0:
        shutil.rmtree(work, ignore_errors=True)
    else:
        log(f"perfbench: {workload} failed; server logs kept in {work}")
    return rc, out


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def run_all(cmake_dir, seed, seconds):
    selftest = subprocess.run([str(cmake_dir / "perfbench_selftest")])
    failed = selftest.returncode != 0
    summary = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, out = run_harness(cmake_dir, workload, seed, seconds, trace)
            sys.stdout.write(out)
            result = last_json(out)
            summary[f"{workload}/trace{trace}"] = result
            failed |= rc != 0 or result is None or not result.get("correct")
    with open(BUILD / "records" / f"all-seed{seed}.json", "w") as f:
        json.dump(summary, f, indent=1)
    log(f"perfbench: all workloads {'FAILED' if failed else 'passed'}; "
        f"records in {BUILD / 'records'}")
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="only build and run the benchmark's own tests")
    args = ap.parse_args()
    seconds = args.seconds if args.seconds is not None else default_seconds()
    if seconds < 1:
        ap.error("--seconds must be at least 1")

    cmake_dir = build()
    if cmake_dir is None:
        return 2
    if args.selftest:
        return subprocess.run([str(cmake_dir / "perfbench_selftest")]).returncode
    if args.workload is None:
        return run_all(cmake_dir, args.seed, seconds)
    rc, out = run_harness(cmake_dir, args.workload, args.seed, seconds,
                          args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    if rc == 0 and last_json(out) is None:
        log("perfbench: the harness printed no result line")
        rc = 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
