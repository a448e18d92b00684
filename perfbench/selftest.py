#!/usr/bin/env python3
"""Smoke-scale self-test of the whole-study benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

Runs every workload named in BENCHMARK.json on a small cohort (--smoke),
untraced and traced, twice, and checks that the result line holds exactly
the declared metrics with their declared units and that the exact counts
repeat on the same seed. Then checks that the
correctness gate fires on a deliberately wrong expected set, and that an
environment override that would change a workload is refused. Exits 1 on
any failed check.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Counts the program makes; a run with the same seed must repeat them.
EXACT_COUNTS = ("net_bytes", "gendpr.ld_member_requests",
                "gendpr.lr_matvecs", "crypto.records_sealed")

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(workload, trace, *extra, env=None):
    """Runs the benchmark; returns (exit code, parsed last stdout line)."""
    command = SPEC["command"] + [
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--smoke", *extra,
    ]
    proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode not in (0, 1, 2):
        sys.stderr.write(proc.stderr)
    return proc.returncode, result


def check_metrics(label, result, declared):
    printed = {name: m.get("unit") for name, m in result["metrics"].items()}
    expected = {m["name"]: m["unit"] for m in declared}
    missing = sorted(set(expected) - set(printed))
    extra = sorted(set(printed) - set(expected))
    wrong_unit = sorted(n for n in expected
                        if n in printed and printed[n] != expected[n])
    check(not missing and not extra and not wrong_unit,
          f"{label}: every declared metric printed with its unit "
          f"(missing {missing}, extra {extra}, wrong unit {wrong_unit})")
    values = [m.get("value") for m in result["metrics"].values()]
    check(all(isinstance(v, (int, float)) and math.isfinite(v)
              for v in values),
          f"{label}: every value is a finite number")


for workload in (w["name"] for w in SPEC["workloads"]):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        label = f"{workload} --trace {trace}"
        code, result = run(workload, trace)
        check(code == 0 and result is not None and set(result) == RESULT_KEYS,
              f"{label}: exits 0 with a result line")
        if code != 0 or result is None or set(result) != RESULT_KEYS:
            continue
        check(result["correct"] is True and result["failed"] == 0
              and result["attempted"] >= 1,
              f"{label}: every study matches its oracle")
        check_metrics(label, result, SPEC[section])
        _, again = run(workload, trace)
        exact = [n for n in EXACT_COUNTS if n in result["metrics"]]
        check(again is not None and all(
            again["metrics"].get(n) == result["metrics"][n] for n in exact),
            f"{label}: exact counts {exact} repeat on the same seed")

    code, result = run(workload, 0, "--wrong-oracle")
    check(code == 1 and result is not None and result["correct"] is False
          and result["failed"] == result["attempted"],
          f"{workload}: correctness gate fires on a wrong expected set")

overridden = dict(os.environ, GENDPR_TRANSPORT="epoll")
code, result = run("fig6_g3_f0", 0, env=overridden)
check(code == 2 and result is None,
      "GENDPR_TRANSPORT=epoll on an in-process workload is refused")

print(f"{len(failures)} failed check(s)")
sys.exit(1 if failures else 0)
