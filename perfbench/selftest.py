#!/usr/bin/env python3
"""The benchmark's own test, on a tiny configuration.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, runs the benchmark binary twice traced at
1/2048 (matrices) and 1/1024 (tensors) scale, and once untraced. Checks:
  - every run passes its correctness checks (exit 0, "correct": true);
  - the two traced runs give identical simulated counts;
  - the traced result line carries every per-layer metric and the
    untraced one exactly the end-to-end metrics, each with its unit;
  - the printed report names every end-to-end metric (and fail_frac)
    with its unit, and the results file carries the provenance.
Exit status 0 when every check holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

TINY = ["--scale-mat", "2048", "--scale-ten", "1024", "--seconds", "1"]
# Units whose values are host times; every other per-layer metric is a
# deterministic function of the simulated runs.
HOST_UNITS = {"s", "ns"}
PROVENANCE = ("git_rev", "source_sha256", "build_type", "compiler",
              "hardware_concurrency", "nproc", "scale_mat", "scale_ten",
              "config_fingerprint")
FAILURES = []


def check(cond, what):
    print("%s  %s" % ("ok  " if cond else "FAIL", what))
    if not cond:
        FAILURES.append(what)


def drive(exe, workload, trace, tag):
    out = os.path.join(run.build_dir(), "results",
                       "selftest-%s-%s.json" % (workload, tag))
    os.makedirs(os.path.dirname(out), exist_ok=True)
    cmd = [exe, "--workload", workload, "--seed", "7", "--trace",
           str(trace), "--out", out, "--meta", "git_rev=selftest",
           "--meta", "source_sha256=selftest"] + TINY
    r = subprocess.run(cmd, env=run.runner_env(), capture_output=True,
                       text=True, timeout=run.TIMEOUT_S)
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    with open(out) as f:
        full = json.load(f)
    return r.returncode, r.stdout, result, full


def main():
    exe = run.build()
    if exe is None:
        print("selftest: build failed")
        return 1
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    for w in (x["name"] for x in bench["workloads"]):
        runs = [drive(exe, w, 1, "a"), drive(exe, w, 1, "b")]
        for rc, _, res, _ in runs:
            check(rc == 0 and res.get("correct") is True
                  and res.get("failed") == 0 and res.get("attempted", 0) >= 1,
                  "%s traced run passes its checks" % w)
        got = [res.get("metrics", {}) for _, _, res, _ in runs]
        for name, unit in layer.items():
            check(all(g.get(name, {}).get("unit") == unit for g in got),
                  "%s per-layer %s [%s]" % (w, name, unit))
        same = [n for n, u in layer.items() if u not in HOST_UNITS and
                got[0].get(n, {}).get("value") !=
                got[1].get(n, {}).get("value")]
        check(not same, "%s simulated counts repeat across runs %s" %
              (w, same or ""))

        rc, text, res, full = drive(exe, w, 0, "untraced")
        check(rc == 0 and res.get("correct") is True,
              "%s untraced run passes its checks" % w)
        m = res.get("metrics", {})
        check(set(m) == set(e2e) and
              all(m[n].get("unit") == u for n, u in e2e.items()),
              "%s result line holds exactly the end-to-end metrics" % w)
        report = dict(e2e, fail_frac="ratio")
        for name, unit in report.items():
            check(any(ln.split()[:1] == [name] and ln.split()[-1] == unit
                      for ln in text.splitlines()),
                  "%s report prints %s [%s]" % (w, name, unit))
        prov = full.get("provenance", {})
        check(all(k in prov for k in PROVENANCE),
              "%s results file carries the provenance" % w)

    print("selftest: %s" % ("FAILED (%d)" % len(FAILURES) if FAILURES
                            else "passed"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
