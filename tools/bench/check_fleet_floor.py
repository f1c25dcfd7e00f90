#!/usr/bin/env python3
"""Regression floor check for the fleet_load bench artifact.

Compares the smoke run's throughput against the checked-in floor
(tools/bench/fleet_load_floor.json) and fails when it regresses more
than the allowed fraction. The floor is deliberately conservative — a
single-core container measurement — so the check catches "someone
reintroduced a global lock" (an integer-factor collapse), not runner
jitter. It also holds `session.stale_attacks_accepted` and
`session.duplicates_processed` at hard zero.

Usage: check_fleet_floor.py BENCH_fleet_load.json [--floor FLOOR.json]
Exit status: 0 ok, 1 regression or malformed artifact, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REQUIRED_KEYS = (
    "throughput_rps",
    "latency_p50_us",
    "latency_p99_us",
    "latency_p999_us",
    "requests_sent",
    "replays",
    "shed",
    "session.handshakes_per_sec",
    "session.rehandshakes",
    "session.counter_rejections",
    "session.stale_attacks_accepted",
    "session.duplicates_processed",
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("artifact", type=Path,
                        help="BENCH_fleet_load.json from the smoke run")
    parser.add_argument("--floor", type=Path,
                        default=Path(__file__).with_name(
                            "fleet_load_floor.json"))
    args = parser.parse_args()

    try:
        artifact = json.loads(args.artifact.read_text())
        floor = json.loads(args.floor.read_text())
    except (OSError, json.JSONDecodeError) as err:
        print(f"check_fleet_floor: cannot read inputs: {err}",
              file=sys.stderr)
        return 1

    counters = artifact.get("counters", {})
    missing = [key for key in REQUIRED_KEYS if key not in counters]
    if artifact.get("bench") != "fleet_load" or missing:
        print(f"check_fleet_floor: malformed artifact "
              f"(bench={artifact.get('bench')!r}, missing={missing})",
              file=sys.stderr)
        return 1

    tolerance = float(floor.get("allowed_regression", 0.30))
    floors = (
        ("throughput_rps", "throughput_rps", "req/s"),
        ("session.handshakes_per_sec", "session_handshakes_per_sec",
         "handshakes/s"),
    )
    failed = False
    for counter_key, floor_key, unit in floors:
        measured = float(counters[counter_key])
        baseline = float(floor[floor_key])
        minimum = baseline * (1.0 - tolerance)
        print(f"{counter_key} {measured:.0f} {unit} "
              f"(floor {baseline:.0f}, minimum after {tolerance:.0%} "
              f"tolerance: {minimum:.0f})")
        if measured < minimum:
            print(f"check_fleet_floor: REGRESSION — {measured:.0f} {unit} "
                  f"is more than {tolerance:.0%} below the {baseline:.0f} "
                  f"{unit} floor for {counter_key}", file=sys.stderr)
            failed = True

    # The rekey storm must actually exercise its paths: rotations force
    # re-handshakes and the stale-counter replays must be rejected. Zero
    # here means the session plane silently stopped doing its job.
    for counter_key in ("session.rehandshakes", "session.counter_rejections"):
        if int(counters[counter_key]) == 0:
            print(f"check_fleet_floor: {counter_key} is 0 — the rekey "
                  f"storm exercised nothing", file=sys.stderr)
            failed = True

    # Every stale-counter attack must be refused: hard zero.
    accepted = int(counters["session.stale_attacks_accepted"])
    if accepted != 0:
        print(f"check_fleet_floor: session.stale_attacks_accepted is "
              f"{accepted} — the server accepted a replayed counter",
              file=sys.stderr)
        failed = True

    # Each (device, session, counter) of the duplicate storm, and each
    # of its handshakes, must be processed once: hard zero.
    duplicates = int(counters["session.duplicates_processed"])
    if duplicates != 0:
        print(f"check_fleet_floor: session.duplicates_processed is "
              f"{duplicates} — concurrent copies of one request were "
              f"processed more than once", file=sys.stderr)
        failed = True

    if failed:
        return 1
    print("check_fleet_floor: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
