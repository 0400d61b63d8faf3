#!/usr/bin/env python3
"""Deck-level benchmark for enzo-mini (see deckbench/README.md).

Run from the root of a source checkout:

    python3 deckbench/run.py --workload sedov_t1 --seed 1 --seconds 30 --trace 0
    python3 deckbench/run.py --self-test

The first call builds the engine and the benchmark program from source into
.bench_build/ (about a minute on 4 cores); later calls rebuild incrementally.
The program's stdout is passed through; its last line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  Build output goes to
.bench_build/build.log.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "deckbench")
BINARY = os.path.join(BUILD, "deckbench")
LOG = os.path.join(ROOT, ".bench_build", "build.log")

WORKLOADS = ("sedov_t1", "first_star_t4", "cosmo_ckpt_t2")
# Self-test prefixes: long enough to pass each workload's first regrid
# (sedov refines at root step 13) and, for cosmo_ckpt_t2, one snapshot
# (every 16 root steps) that the restart resumes from.
SELF_TEST_STEPS = {"sedov_t1": 15, "first_star_t4": 1, "cosmo_ckpt_t2": 20}
SELF_TEST_LANES = {"sedov_t1": 4, "first_star_t4": 4, "cosmo_ckpt_t2": 2}


def fail(msg):
    print("deckbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no enzo-mini source tree at %s (run from a checkout root)" % ROOT)
    if not os.path.isdir(os.path.join(ROOT, "decks")):
        fail("no decks/ directory at %s" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    with open(LOG, "a") as log:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                fail("cmake configure failed; see " + LOG)
        cmd = ["cmake", "--build", BUILD, "--target", "deckbench", "-j",
               str(min(4, os.cpu_count() or 1))]
        if subprocess.call(cmd, stdout=log, stderr=log) != 0:
            fail("build failed; see " + LOG)


def run_bench(workload, seconds, trace, extra=(), capture=False):
    """Run the benchmark program once; returns (exit code, stdout)."""
    work = os.path.join(ROOT, ".bench_build", "work-%s-%d" % (workload, os.getpid()))
    cmd = [BINARY, "--workload", workload, "--seconds", str(seconds),
           "--trace", str(trace), "--decks", os.path.join(ROOT, "decks"),
           "--work", work] + list(extra)
    try:
        if not capture:
            sys.stdout.flush()
            return subprocess.call(cmd), ""
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        return p.returncode, p.stdout
    finally:
        shutil.rmtree(work, ignore_errors=True)


def metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def self_test():
    """Short prefix of each workload at 1 lane and at its lane count: the
    final-state digests must match (threads=N byte-identical to threads=1),
    every run must pass its output checks, and every metric named in
    BENCHMARK.json must appear in the output."""
    e2e, layers = metric_names()
    problems = []

    def run(w, trace, extra):
        rc, out = run_bench(w, 0, trace, ["--once"] + extra, capture=True)
        lines = out.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            problems.append("%s trace %d %s: no result line (exit %d)"
                            % (w, trace, " ".join(extra), rc))
            return None, out
        if rc != 0 or not result["correct"]:
            problems.append("%s trace %d %s: exit %d, correct=%s"
                            % (w, trace, " ".join(extra), rc, result["correct"]))
        return result, out

    for w in WORKLOADS:
        steps = ["--steps", str(SELF_TEST_STEPS[w])]
        digests = {}
        for lanes in (1, SELF_TEST_LANES[w]):
            result, out = run(w, 0, steps + ["--lanes", str(lanes)])
            found = re.findall(r"digest ([0-9a-f]{16})", out)
            digests[lanes] = found[-1] if found else None
            if result is not None:
                missing = [n for n in e2e if n not in result["metrics"]]
                if missing:
                    problems.append("%s: missing end-to-end metrics %s" % (w, missing))
        same = digests[1] is not None and digests[1] == digests[SELF_TEST_LANES[w]]
        print("%-14s digest 1 lane %s, %d lanes %s: %s" % (
            w, digests[1], SELF_TEST_LANES[w], digests[SELF_TEST_LANES[w]],
            "match" if same else "MISMATCH"))
        if not same:
            problems.append("%s: final-state digest differs across lane counts" % w)
        result, _ = run(w, 1, steps)
        if result is not None:
            missing = [n for n in layers if n not in result["metrics"]]
            if missing:
                problems.append("%s: missing per-layer metrics %s" % (w, missing))
    for p in problems:
        print("self-test: " + p)
    print("self-test: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed; the decks are fixed inputs, so it "
                         "does not change them (see --random-seed)")
    ap.add_argument("--random-seed", type=int, default=2001,
                    help="cosmo_ckpt_t2's RandomSeed (default: the deck's 2001)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload or --self-test is required")
    build()
    if args.self_test:
        return self_test()
    rc, _ = run_bench(args.workload, args.seconds, args.trace,
                   ["--random-seed", str(args.random_seed)])
    return rc


if __name__ == "__main__":
    sys.exit(main())
