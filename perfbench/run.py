#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md beside this file).

Usage, from the repository root:

    python3 perfbench/run.py --workload memory --seed 1 --seconds 30 --trace 0

Builds perfbench/ (the simulator library from src/ plus the runner) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
runner on one thread, and passes its output through: a human-readable
report, then one JSON result line. The full results file, with
provenance and (traced) spans, lands in the build directory's results/.
Exit status: the runner's (0 ok, 1 a run failed its checks), 2 when the
build fails, 3 on timeout.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("memory", "compute", "merge")
TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure (once) and build the runner; returns its path or None."""
    bd = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(bd, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bd,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bd, "-j", jobs,
                  "--target", "tmu_perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return None
    return os.path.join(bd, "tmu_perfbench")


def source_digest():
    """sha256 over src/ and perfbench/ (paths and contents)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unavailable"


def runner_args(args):
    """The runner's command line, minus the binary."""
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    out = os.path.join(results, "%s-seed%d-trace%d.json" %
                       (args.workload, args.seed, args.trace))
    return ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", out,
            "--meta", "git_rev=" + git_rev(),
            "--meta", "source_sha256=" + source_digest()]


def runner_env():
    # TMU_* variables (e.g. TMU_SCHED_DENSE) would change the
    # configuration under measurement.
    return {k: v for k, v in os.environ.items() if not k.startswith("TMU_")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        ap.error("--seed must be >= 0 and --seconds in 1..3600")

    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        r = subprocess.run([exe] + runner_args(args), env=runner_env(),
                           cwd=ROOT, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: runner timed out", file=sys.stderr)
        return 3
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
