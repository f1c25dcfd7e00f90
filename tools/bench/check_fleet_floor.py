#!/usr/bin/env python3
"""Regression floor check for the fleet_load bench artifact.

Compares the smoke run's throughput against the checked-in floor
(tools/bench/fleet_load_floor.json) and fails when it regresses more
than the allowed fraction. The floor is deliberately conservative — a
single-core container measurement — so the check catches "someone
reintroduced a global lock" (an integer-factor collapse), not runner
jitter. It also holds `session.stale_attacks_accepted` and
`session.duplicates_processed` at hard zero, bounds the clinic phase's
`session.cached_exchanges_per_device` by one handshake plus one
anti-replay window (`max_cached_exchanges_per_device`), and bounds the
resident memory one cached exchange costs
(`session.cache_bytes_per_exchange`, at most
`max_cache_bytes_per_exchange`).

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
    "session.clinic_devices",
    "session.clinic_commands_ok",
    "session.cached_exchanges_per_device",
    "session.cache_bytes_per_exchange",
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

    # A cached exchange outlives its anti-replay window only if nothing
    # retires it: each clinic device may keep its handshake and the last
    # window of commands, however long its session ran. The bound means
    # something only if every device ran past the window.
    bound = float(floor["max_cached_exchanges_per_device"])
    cached = float(counters["session.cached_exchanges_per_device"])
    per_device = (int(counters["session.clinic_commands_ok"]) /
                  max(1, int(counters["session.clinic_devices"])))
    print(f"session.cached_exchanges_per_device {cached:.1f} "
          f"(bound {bound:.0f}, {per_device:.0f} commands per device)")
    if per_device <= bound:
        print(f"check_fleet_floor: the clinic phase ran {per_device:.0f} "
              f"commands per device, not past the {bound:.0f}-exchange "
              f"bound", file=sys.stderr)
        failed = True
    if cached > bound:
        print(f"check_fleet_floor: session.cached_exchanges_per_device is "
              f"{cached:.1f} — cached exchanges outlive the anti-replay "
              f"window (bound {bound:.0f})", file=sys.stderr)
        failed = True

    # A full cache of exchanges with an 80-byte report: each one is a
    # record sized to its payload plus its index slot. A per-entry node
    # container, or a second copy of the response, shows up here.
    bound = float(floor["max_cache_bytes_per_exchange"])
    per_exchange = float(counters["session.cache_bytes_per_exchange"])
    print(f"session.cache_bytes_per_exchange {per_exchange:.1f} "
          f"(bound {bound:.0f})")
    if per_exchange > bound:
        print(f"check_fleet_floor: session.cache_bytes_per_exchange is "
              f"{per_exchange:.1f} — a cached exchange costs more than "
              f"{bound:.0f} resident bytes", file=sys.stderr)
        failed = True

    if failed:
        return 1
    print("check_fleet_floor: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
