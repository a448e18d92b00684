#!/usr/bin/env python3
"""Validates gendpr.run_report.v2 documents (and BENCH_*.json smoke output).

Usage:
    tools/check_report.py report.json [more.json ...]

Files whose top-level object carries ``"schema": "gendpr.run_report.v2"``
are validated structurally: required sections, per-phase wall times, per-link
byte counts, per-GDO EPC peaks, the SIMD kernel backend, the tiling shape of
the pipelined phase engine, and — when a trace is embedded — that every
analysis phase appears exactly once, carries one ``maf.tile.<k>`` /
``lr.tile.<k>`` span per tile (``lr.tile.<k>`` spans the gather of tile k's
member planes), and one combination span per combination in the LD/LR
phases. Google-benchmark JSON (``"benchmarks"`` array) gets a
shallow sanity check. Anything else is an error. Exits non-zero on the first
invalid file; stdlib only, so it runs anywhere CI has python3.
"""
import json
import sys

SCHEMA = "gendpr.run_report.v2"
PHASES = ("phase.maf", "phase.ld", "phase.lr")
PHASE_TIMINGS = ("aggregation_ms", "indexing_ms", "ld_ms", "lr_ms", "total_ms")
KERNEL_BACKENDS = ("portable", "avx2", "avx512")


class Invalid(Exception):
    pass


def require(condition, message):
    if not condition:
        raise Invalid(message)


def check_run_report(doc):
    require(doc.get("schema") == SCHEMA, f"schema is not {SCHEMA}")
    require(isinstance(doc.get("transport"), str), "missing transport label")

    study = doc.get("study")
    require(isinstance(study, dict), "missing study section")
    require(study.get("num_combinations", 0) >= 1, "no combinations recorded")
    require(study.get("num_gdos", 0) >= 1, "study.num_gdos missing")
    require(
        isinstance(study.get("combination_members_total"), int),
        "study.combination_members_total missing",
    )
    require(
        1 <= study.get("live_combinations", 0) <= study["num_combinations"],
        "study.live_combinations out of range",
    )
    selection = study.get("selection")
    require(isinstance(selection, dict), "missing study.selection")
    for key in ("l_prime", "l_double_prime", "l_safe"):
        require(isinstance(selection.get(key), int), f"selection.{key} missing")
    require(
        selection["l_safe"] <= selection["l_double_prime"] <= selection["l_prime"],
        "selection sets must shrink monotonically",
    )

    phases = doc.get("phases")
    require(isinstance(phases, dict), "missing phases section")
    for key in PHASE_TIMINGS:
        value = phases.get(key)
        require(
            isinstance(value, (int, float)) and value >= 0,
            f"phases.{key} missing or negative",
        )

    network = doc.get("network")
    require(isinstance(network, dict), "missing network section")
    require(network.get("total_bytes", 0) > 0, "no network traffic recorded")
    if selection["l_double_prime"] > 0:
        # An empty phase-2 funnel (every SNP filtered before the LR test)
        # legitimately broadcasts no phase-2 tiles at all.
        require(
            network.get("phase2_body_bytes", 0) > 0,
            "no phase-2 broadcast body recorded",
        )
    links = network.get("links")
    require(isinstance(links, list) and links, "missing per-link byte counts")
    for link in links:
        for key in ("from", "to", "bytes", "messages"):
            require(key in link, f"link entry missing {key}")
        require(link["bytes"] > 0, "per-link byte count is zero")

    epc = doc.get("epc")
    require(isinstance(epc, dict), "missing epc section")
    per_gdo = epc.get("per_gdo")
    require(isinstance(per_gdo, list) and per_gdo, "missing per-GDO EPC peaks")
    for entry in per_gdo:
        require("gdo" in entry and "peak_bytes" in entry, "bad per_gdo entry")
        require(entry["peak_bytes"] > 0, f"GDO {entry.get('gdo')} EPC peak is zero")
    limit = epc.get("limit_bytes", 0)
    if limit:
        for entry in per_gdo:
            require(
                entry["peak_bytes"] <= limit,
                f"GDO {entry['gdo']} EPC peak exceeds the configured limit",
            )

    crypto = doc.get("crypto")
    require(isinstance(crypto, dict), "missing crypto section")
    require(
        crypto.get("backend") in ("portable", "native"),
        f"crypto.backend {crypto.get('backend')!r} is not a known AEAD backend",
    )
    require(crypto.get("records_sealed", 0) > 0, "no AEAD records sealed")
    require(crypto.get("bytes_sealed", 0) > 0, "no AEAD bytes sealed")
    metrics = doc.get("metrics")
    if isinstance(metrics, dict):
        labels = metrics.get("labels", {})
        require(
            labels.get("crypto.backend") == crypto["backend"],
            "metrics crypto.backend label disagrees with the crypto section",
        )

    kernels = doc.get("kernels")
    require(isinstance(kernels, dict), "missing kernels section")
    require(
        kernels.get("backend") in KERNEL_BACKENDS,
        f"kernels.backend {kernels.get('backend')!r} is not a known backend",
    )
    if isinstance(metrics, dict):
        labels = metrics.get("labels", {})
        require(
            labels.get("kernel.backend") == kernels["backend"],
            "metrics kernel.backend label disagrees with the kernels section",
        )

    tiles = doc.get("tiles")
    require(isinstance(tiles, dict), "missing tiles section")
    require(tiles.get("count", 0) >= 1, "tiles.count must be at least 1")
    if selection["l_double_prime"] == 0:
        # Nothing survived phase 2: the phase-3 plan is empty, zero tiles.
        require(
            tiles.get("lr_count", -1) == 0,
            "empty L'' must report zero LR tiles",
        )
    else:
        require(
            tiles.get("lr_count", 0) >= 1, "tiles.lr_count must be at least 1"
        )
    width = tiles.get("width")
    require(isinstance(width, int) and width >= 0, "tiles.width missing")
    if width == 0:
        require(
            tiles["count"] == 1 and tiles["lr_count"] <= 1,
            "monolithic run (width 0) must report at most one tile per phase",
        )

    pipeline = doc.get("pipeline")
    require(isinstance(pipeline, dict), "missing pipeline section")
    inline_tiles = pipeline.get("maf_tiles_assessed_inline")
    require(isinstance(inline_tiles, int), "pipeline.maf_tiles_assessed_inline missing")
    require(
        inline_tiles <= tiles["count"],
        "more MAF tiles assessed inline than the plan has tiles",
    )
    value = pipeline.get("leader_inline_assess_ms")
    require(
        isinstance(value, (int, float)) and value >= 0,
        "pipeline.leader_inline_assess_ms missing or negative",
    )

    events = doc.get("events")
    require(isinstance(events, dict), "missing events section")
    require(isinstance(events.get("dead_gdos"), list), "missing events.dead_gdos")

    check_lr_counters(
        doc, study, tiles, events["dead_gdos"], selection["l_double_prime"]
    )
    check_wire_counters(doc, study, tiles, degraded=bool(events["dead_gdos"]))
    check_ld_counters(doc)

    trace = doc.get("trace")
    if trace is not None:
        check_trace(
            trace,
            study["num_combinations"],
            set(events["dead_gdos"]),
            tiles,
        )


def check_lr_counters(doc, study, tiles, dead_gdos, l_double_prime):
    """LR-phase ledger over the exported counters.

    Every member answers each phase-2 tile once with its indicator planes
    (``lr.plane_tiles_received``, ``lr.plane_bytes``), and the leader runs
    one selection per live combination (``lr.selections``). With
    T = tiles.lr_count, M = the members (every GDO but the leader) and
    n_g = study.n_case_per_gdo[g], a clean run pins the ledger exactly:
        plane_tiles_received == |M| * T
        plane_bytes == sum over M of ceil(n_g / 64) * 8 * |L''|
        selections == live_combinations
    A degraded run only bounds it: a member may deliver planes and be
    declared dead afterwards, and the dead set can still grow after the
    selections ran, so the counters lie between the survivors' ledger and
    the clean-run one.
    """
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        return  # run was not observed; nothing to cross-check
    counters = metrics.get("counters")
    require(isinstance(counters, dict), "metrics.counters missing")
    n_case = study.get("n_case_per_gdo")
    require(
        isinstance(n_case, list) and len(n_case) == study["num_gdos"],
        "study.n_case_per_gdo missing or not one entry per GDO",
    )
    lr_tiles = tiles["lr_count"]
    members = [g for g in range(study["num_gdos"]) if g != study["leader_gdo"]]
    survivors = [g for g in members if g not in dead_gdos]

    def plane_bytes(gdos):
        return sum((n_case[g] + 63) // 64 * 8 * l_double_prime for g in gdos)

    ledger = (
        ("lr.plane_tiles_received", len(survivors) * lr_tiles,
         len(members) * lr_tiles),
        ("lr.plane_bytes", plane_bytes(survivors), plane_bytes(members)),
        ("lr.selections", study["live_combinations"],
         study["num_combinations"]),
    )
    for name, clean, most in ledger:
        value = counters.get(name, 0)
        if dead_gdos:
            require(
                clean <= value <= most,
                f"{name} {value} outside [{clean}, {most}] (degraded run)",
            )
        else:
            require(value == clean, f"{name} {value}: expected {clean}")


def check_wire_counters(doc, study, tiles, degraded):
    """Serialize-once accounting over the sealed send path.

    Every sealed protocol record is either a message's first seal
    (``wire.serializations``) or a per-peer AEAD pass over an already-staged
    body (``wire.fanout_reuses``), so the counters conserve exactly:
        serializations + fanout_reuses == records_sent
    On a clean run the leader's announce, phase-1, per-tile phase-2, and
    phase-3 broadcasts each reach G-1 members off one staging, which pins a
    fan-out floor of (3 + lr_tiles) * (G - 2) reuses. A regression that
    re-serializes per recipient inflates ``wire.serializations`` and breaks
    the equality; one that re-stages per broadcast starves the floor.
    """
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        return  # run was not observed; nothing to cross-check
    counters = metrics.get("counters", {})
    if "wire.records_sent" not in counters:
        return  # report predates the wire counters
    serializations = counters.get("wire.serializations", 0)
    reuses = counters.get("wire.fanout_reuses", 0)
    records = counters["wire.records_sent"]
    require(records > 0, "wire.records_sent is zero on an observed run")
    require(serializations > 0, "wire.serializations is zero")
    require(
        serializations + reuses == records,
        f"wire counters break conservation: {serializations} first seals + "
        f"{reuses} fan-out reuses != {records} records sent",
    )
    num_gdos = study["num_gdos"]
    if degraded or num_gdos < 3:
        return  # mid-study deaths truncate broadcasts; only conservation holds
    floor = (3 + tiles["lr_count"]) * (num_gdos - 2)
    require(
        reuses >= floor,
        f"wire.fanout_reuses {reuses} below the broadcast floor {floor} "
        f"((3 + {tiles['lr_count']} tiles) * ({num_gdos} - 2))",
    )
    require(
        serializations < records,
        "every record was a fresh serialization: broadcasts are not reusing "
        "their staged bodies",
    )


def check_ld_counters(doc):
    """LD-phase pair accounting over the exported counters.

    Members push the co-occurrence counts of every pair within the LD window
    unasked, and a pair further apart costs one round trip on its first
    touch, which asks every live member at once; later combinations read the
    pair from the leader's cache. So every distinct pair is served exactly
    once, by a window or by one round trip:
        ld.window_pairs + ld.round_trips == coordinator.ld_pairs_fetched
    A member that dies owes its answer no more, and the walk resumes without
    asking again, so degraded runs are pinned too.
    """
    counters = doc.get("metrics", {}).get("counters", {})
    if "coordinator.ld_pairs_fetched" not in counters:
        return
    pairs = counters["coordinator.ld_pairs_fetched"]
    windowed = counters.get("ld.window_pairs", 0)
    trips = counters.get("ld.round_trips", 0)
    require(
        windowed + trips == pairs,
        f"run served {pairs} distinct LD pairs with {windowed} window "
        f"pairs and {trips} round trips",
    )


def check_trace(trace, num_combinations, dead_gdos, tiles):
    require(isinstance(trace, list) and trace, "trace section is empty")
    by_name = {}
    for span in trace:
        for key in ("id", "name", "start_ms"):
            require(key in span, f"trace span missing {key}")
        require(span.get("duration_ms") is not None, f"span {span['name']} left open")
        by_name.setdefault(span["name"], []).append(span)

    require("study" in by_name, "trace has no root study span")
    require(len(by_name["study"]) == 1, "more than one study span")

    def check_children(phase, prefix, expected, exact):
        children = [name for name in by_name if name.startswith(prefix)]
        if exact:
            require(
                len(children) == expected,
                f"{phase}: {len(children)} {prefix}* spans, expected {expected}",
            )
        else:
            require(
                min(1, expected) <= len(children) <= expected,
                f"{phase}: {len(children)} {prefix}* spans, "
                f"expected at most {expected}",
            )
        for name in children:
            require(
                len(by_name[name]) == 1,
                f"{name} recorded {len(by_name[name])} times, expected once",
            )
            for span in by_name[name]:
                require(
                    span.get("parent") == by_name[phase][0]["id"],
                    f"{name} is not a child of {phase}",
                )

    for phase in PHASES:
        require(phase in by_name, f"trace missing {phase}")
        require(len(by_name[phase]) == 1, f"{phase} recorded more than once")

    # The MAF phase is assessed per tile (combinations are an inner loop of
    # each tile span); the LD and LR phases keep per-combination spans, and
    # the LR phase additionally records one plane-gather span per tile.
    # Every span is recorded once. Combinations naming a dead GDO are
    # skipped, so a degraded run may trace fewer combination spans than the
    # announced count — never more.
    check_children("phase.maf", "maf.tile.", tiles["count"], exact=True)
    if tiles["lr_count"] > 0:
        check_children("phase.lr", "lr.tile.", tiles["lr_count"], exact=True)
    for phase in ("ld", "lr"):
        check_children(
            f"phase.{phase}", f"{phase}.combination.", num_combinations,
            exact=not dead_gdos,
        )


def check_google_benchmark(doc):
    benchmarks = doc.get("benchmarks")
    require(isinstance(benchmarks, list) and benchmarks, "no benchmarks recorded")
    for bench in benchmarks:
        require("name" in bench, "benchmark entry missing name")
        require(
            bench.get("error_occurred", False) is False,
            f"benchmark {bench.get('name')} reported an error",
        )


def check_file(path):
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    require(isinstance(doc, dict), "top-level JSON is not an object")
    if doc.get("schema") == SCHEMA:
        check_run_report(doc)
        return "run report"
    if "benchmarks" in doc:
        check_google_benchmark(doc)
        return "benchmark output"
    raise Invalid("neither a run report nor google-benchmark output")


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in argv[1:]:
        try:
            kind = check_file(path)
        except (OSError, json.JSONDecodeError, Invalid) as error:
            print(f"FAIL {path}: {error}", file=sys.stderr)
            return 1
        print(f"ok   {path} ({kind})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
