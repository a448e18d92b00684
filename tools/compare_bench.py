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
    from);
  * the wire ablation keeps its zero-copy shape within each file.

Exits non-zero with a per-failure message on stderr.
"""

import json
import sys


def rows_by_name(doc):
    return {b["name"]: b for b in doc.get("benchmarks", [])}


def fail(msg, failures):
    print(f"FAIL {msg}", file=sys.stderr)
    failures.append(msg)


def check_wire_ablation(rows, label, failures):
    """Zero-copy frame-path invariants within a wire-ablation file.

    At every payload size the ablation runs both chains, and the pooled path
    must show its structural advantage regardless of machine or scale: at
    least a 2x reduction in payload passes per frame, and a steady state of
    at most one heap allocation per frame. The fan-out pair must keep the
    serialize-once contract (one serialization per broadcast, against one
    per peer on the legacy loop).
    """
    legacy_prefix = "BM_Wire_LegacyFramePath/"
    for name, legacy in rows.items():
        if not name.startswith(legacy_prefix):
            continue
        size = name[len(legacy_prefix):]
        pooled = rows.get(f"BM_Wire_PooledFramePath/{size}")
        if pooled is None:
            fail(f"{label}: no pooled row for payload size {size}", failures)
            continue
        legacy_copies = legacy.get("CopiesPerFrame", 0)
        pooled_copies = pooled.get("CopiesPerFrame", float("inf"))
        if not pooled_copies * 2 <= legacy_copies:
            fail(
                f"{label}: pooled path at {size} B lost the 2x copy "
                f"reduction ({pooled_copies} vs {legacy_copies})",
                failures,
            )
        if not pooled.get("AllocsPerFrame", float("inf")) <= 1:
            fail(
                f"{label}: pooled path at {size} B allocates "
                f"{pooled.get('AllocsPerFrame')} per steady-state frame",
                failures,
            )
    once_prefix = "BM_Wire_FanoutSerializeOnce/"
    for name, once in rows.items():
        if not name.startswith(once_prefix):
            continue
        size = name[len(once_prefix):]
        reserialize = rows.get(f"BM_Wire_FanoutReserialize/{size}")
        if once.get("SerializationsPerBroadcast") != 1:
            fail(
                f"{label}: staged broadcast at {size} B serialized "
                f"{once.get('SerializationsPerBroadcast')} times",
                failures,
            )
        if reserialize is not None and not (
            once.get("SerializationsPerBroadcast", float("inf"))
            < reserialize.get("SerializationsPerBroadcast", 0)
        ):
            fail(
                f"{label}: fan-out rows at {size} B do not contrast "
                f"serialize-once against per-peer serialization",
                failures,
            )


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
    check_wire_ablation(candidate, candidate_path, failures)
    check_wire_ablation(baseline, baseline_path, failures)

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
