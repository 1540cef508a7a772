#!/usr/bin/env python3
"""Smoke-size self-test of the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs the benchmark at smoke size,
untraced and traced, and checks that the last line is the result object,
that every metric named in BENCHMARK.json is emitted (and no other), finite
and with its declared unit, and that end-to-end metrics are non-zero. Then
it corrupts the flow-conservation input of both serving workloads and checks
that the conservation check trips: the run reports correct=false with a
failed operation and exits non-zero. Last, it copies only BENCHMARK.json and
perfbench/ into a scratch directory under .bench_build/ and checks that the
benchmark fails there without printing a result. Exits 1 when any
expectation fails.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

failures = []


def expect(ok, what):
    print(("PASS  " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return p.returncode, result, p.stderr


def check_result(label, rc, result, declared, nonzero):
    expect(rc == 0, f"{label}: exit code 0 (got {rc})")
    if result is None:
        expect(False, f"{label}: last stdout line is a JSON object")
        return
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           f"{label}: result has exactly correct/attempted/failed/metrics")
    expect(result.get("correct") is True and result.get("failed") == 0,
           f"{label}: correct with no failed operations")
    expect(isinstance(result.get("attempted"), int) and result["attempted"] >= 1,
           f"{label}: attempted is a whole number >= 1")
    metrics = result.get("metrics", {})
    expect(set(metrics) == set(declared),
           f"{label}: emits exactly the declared metrics "
           f"(missing {sorted(set(declared) - set(metrics))}, "
           f"undeclared {sorted(set(metrics) - set(declared))})")
    bad = []
    for name, unit in declared.items():
        m = metrics.get(name)
        if m is None:
            continue
        v = m.get("value")
        ok = isinstance(v, (int, float)) and math.isfinite(v) and m.get("unit") == unit
        if not ok or (nonzero and v == 0):
            bad.append(f"{name}={v} {m.get('unit')}")
    expect(not bad, f"{label}: every metric finite{', non-zero' if nonzero else ''} and in its "
                    f"declared unit {bad if bad else ''}")


def check_bare_checkout():
    """Only BENCHMARK.json and perfbench/: the run must fail without a result."""
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "design", "--seed", "1",
                        "--seconds", "1", "--trace", "0"], cwd=bare, env=env,
                       capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    expect(p.returncode != 0 and '"metrics"' not in p.stdout,
           "without the repository sources the benchmark fails and prints no result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        name = w["name"]
        rc, result, err = run(name, 0)
        check_result(f"{name} untraced", rc, result, e2e, nonzero=True)
        rc, result, err = run(name, 1)
        check_result(f"{name} traced", rc, result, layers, nonzero=False)
    for name in ("edge_paper", "fleet_1000"):
        for trace in (0, 1):
            rc, result, err = run(name, trace, "--break-conservation")
            tripped = (rc != 0 and result is not None and result.get("correct") is False
                       and result.get("failed", 0) >= 1)
            expect(tripped, f"{name} trace={trace}: broken conservation input trips the check")
    check_bare_checkout()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
