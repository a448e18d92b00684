#!/usr/bin/env python3
"""Compares a google-benchmark JSON run against a committed baseline.

Usage: compare_bench.py BASELINE.json CANDIDATE.json

Timings are machine- and scale-dependent, so they are never compared.
What must hold between a baseline committed at paper scale and a smoke run
at GENDPR_BENCH_SCALE<<1 is the *shape* of the result:

  * the candidate covers every benchmark name the baseline has (a vanished
    row means a sweep config was dropped or a bench silently errored);
  * no candidate row carries an error_occurred marker;
  * every user counter present in a baseline row is present in the matching
    candidate row (schema drift in the counters the paper tables are built
    from).

Exits non-zero with a per-failure message on stderr.
"""

import json
import sys


def rows_by_name(doc):
    return {b["name"]: b for b in doc.get("benchmarks", [])}


def fail(msg, failures):
    print(f"FAIL {msg}", file=sys.stderr)
    failures.append(msg)


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    baseline_path, candidate_path = argv[1], argv[2]
    with open(baseline_path) as f:
        baseline = rows_by_name(json.load(f))
    with open(candidate_path) as f:
        candidate = rows_by_name(json.load(f))

    failures = []
    for name, base_row in baseline.items():
        cand_row = candidate.get(name)
        if cand_row is None:
            fail(f"{candidate_path}: benchmark '{name}' disappeared", failures)
            continue
        if cand_row.get("error_occurred"):
            fail(
                f"{candidate_path}: '{name}' errored: "
                f"{cand_row.get('error_message', '?')}",
                failures,
            )
            continue
        missing = [
            key
            for key, value in base_row.items()
            if isinstance(value, (int, float))
            and not isinstance(value, bool)
            and key
            not in (
                "real_time",
                "cpu_time",
                "iterations",
                "repetitions",
                "repetition_index",
                "family_index",
                "per_family_instance_index",
                "threads",
            )
            and key not in cand_row
        ]
        if missing:
            fail(
                f"{candidate_path}: '{name}' lost counters {missing}",
                failures,
            )
    if failures:
        print(f"{len(failures)} failure(s)", file=sys.stderr)
        return 1
    print(
        f"ok   {candidate_path}: {len(baseline)} baseline rows covered "
        f"({baseline_path})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
