#!/usr/bin/env python3
"""Gate check for the crash_chaos bench artifact.

Two kinds of assertion over BENCH_crash_chaos.json:

  correctness   Every durability invariant counter must be exactly zero
                (an acked record lost, a ghost record resurrected, a
                counter rewound, a secret on disk — any of these is a
                real recovery bug, never jitter), and the sweep must
                actually have discovered crash sites and fired crashes,
                or the harness silently tested nothing. The recovery
                sizing phase must have replayed at least two segments
                (tools/bench/crash_chaos_floor.json), or the ceiling
                below would time the journal alone. Every stored report
                fetched back from the log after a restart must match
                what was stored (store.fetch_mismatches == 0).

  recovery time The replay cost per 1k journal records must stay below
                the checked-in ceiling (tools/bench/crash_chaos_floor.json)
                with a generous tolerance. Replay is a startup cost, so
                this is a ceiling, not a floor: it catches an accidental
                O(n^2) in recovery (e.g. re-scanning the journal per
                record), not container jitter.

  memory        The resident memory a stored report costs must stay at
                or below max_rss_bytes_per_record: the log holds the
                reports and memory only an index entry each, so a
                report's bytes creeping back into RAM (~5,600 B each)
                fails. The fetch time (store.fetch_us) is reported, not
                bounded.

Usage: check_crash_floor.py BENCH_crash_chaos.json [--floor FLOOR.json]
Exit status: 0 ok, 1 violation or malformed artifact, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

INVARIANT_KEYS = (
    "invariants.acked_lost",
    "invariants.ghost_records",
    "invariants.duplicate_auth",
    "invariants.counter_rewinds",
    "invariants.secret_leaks",
    "invariants.nonce_reuse",
    "invariants.recovery_errors",
    "invariants.total_failures",
)

REQUIRED_KEYS = INVARIANT_KEYS + (
    "sites_discovered",
    "sweep.runs",
    "sweep.crashes_fired",
    "recovery.records_replayed",
    "recovery.segments_replayed",
    "recovery.ms_per_1k_records",
    "store.rss_bytes_per_record",
    "store.fetch_mismatches",
    "store.fetch_us",
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("artifact", type=Path,
                        help="BENCH_crash_chaos.json from the smoke run")
    parser.add_argument("--floor", type=Path,
                        default=Path(__file__).with_name(
                            "crash_chaos_floor.json"))
    args = parser.parse_args()

    try:
        artifact = json.loads(args.artifact.read_text())
        floor = json.loads(args.floor.read_text())
    except (OSError, json.JSONDecodeError) as err:
        print(f"check_crash_floor: cannot read inputs: {err}",
              file=sys.stderr)
        return 1

    counters = artifact.get("counters", {})
    missing = [key for key in REQUIRED_KEYS if key not in counters]
    if artifact.get("bench") != "crash_chaos" or missing:
        print(f"check_crash_floor: malformed artifact "
              f"(bench={artifact.get('bench')!r}, missing={missing})",
              file=sys.stderr)
        return 1

    failed = False

    # Correctness: zero tolerance on every invariant counter.
    for key in INVARIANT_KEYS:
        value = int(counters[key])
        if value != 0:
            print(f"check_crash_floor: INVARIANT VIOLATED — {key} = "
                  f"{value} (must be 0)", file=sys.stderr)
            failed = True

    # Coverage: the sweep must have found sites and actually crashed.
    min_sites = int(floor.get("min_crash_sites", 10))
    sites = int(counters["sites_discovered"])
    crashes = int(counters["sweep.crashes_fired"])
    print(f"sites_discovered {sites} (minimum {min_sites}), "
          f"sweep crashes fired {crashes}")
    if sites < min_sites:
        print(f"check_crash_floor: only {sites} crash sites discovered — "
              f"persistence boundaries lost their crash points",
              file=sys.stderr)
        failed = True
    if crashes == 0:
        print("check_crash_floor: the sweep fired no crashes — the "
              "harness tested nothing", file=sys.stderr)
        failed = True
    min_segments = int(floor.get("min_segments_replayed", 2))
    segments = int(counters["recovery.segments_replayed"])
    print(f"recovery.segments_replayed {segments} (minimum {min_segments})")
    if segments < min_segments:
        print(f"check_crash_floor: recovery replayed only {segments} "
              f"segments — the sizing phase no longer measures segment "
              f"replay", file=sys.stderr)
        failed = True

    # Stored reports: every one fetched back matches, and each costs at
    # most an index entry of resident memory.
    mismatches = int(counters["store.fetch_mismatches"])
    if mismatches != 0:
        print(f"check_crash_floor: INVARIANT VIOLATED — "
              f"store.fetch_mismatches = {mismatches} (must be 0)",
              file=sys.stderr)
        failed = True
    max_rss = float(floor["max_rss_bytes_per_record"])
    rss = float(counters["store.rss_bytes_per_record"])
    print(f"store.rss_bytes_per_record {rss:.0f} B (maximum {max_rss:.0f}), "
          f"store.fetch_us {float(counters['store.fetch_us']):.1f} us")
    if rss > max_rss:
        print(f"check_crash_floor: REGRESSION — a stored report costs "
              f"{rss:.0f} B of resident memory, more than "
              f"{max_rss:.0f} B: reports are held in memory again",
              file=sys.stderr)
        failed = True

    # Recovery time: ceiling on replay cost per 1k records.
    ceiling = float(floor["replay_ms_per_1k_ceiling"])
    tolerance = float(floor.get("allowed_regression", 1.0))
    measured = float(counters["recovery.ms_per_1k_records"])
    maximum = ceiling * (1.0 + tolerance)
    print(f"recovery.ms_per_1k_records {measured:.2f} ms "
          f"(ceiling {ceiling:.2f}, maximum after {tolerance:.0%} "
          f"tolerance: {maximum:.2f})")
    if measured > maximum:
        print(f"check_crash_floor: REGRESSION — replay costs "
              f"{measured:.2f} ms per 1k records, more than "
              f"{tolerance:.0%} above the {ceiling:.2f} ms ceiling",
              file=sys.stderr)
        failed = True

    if failed:
        return 1
    print("check_crash_floor: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
