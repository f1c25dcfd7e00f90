#!/usr/bin/env python3
"""Regression floor check for the DSP analysis-path bench artifacts.

Validates BENCH_fig14_analysis_perf.json and BENCH_streaming_analysis.json
(from the --smoke presets) against the checked-in floors in
tools/bench/dsp_floor.json; with --floor it checks any other artifact
against that file (BENCH_compression.json against
tools/bench/compression_floor.json). The floors are deliberately
conservative — roughly a quarter of the container measurement — so the
check catches structural regressions (a per-sample std::sin creeping
back into a kernel, a per-request allocation storm), not runner jitter.

Also enforces the streaming correctness invariant carried by the
artifact: streamed and pipelined peak counts must equal the batch count.

Usage: check_dsp_floor.py ARTIFACT.json [ARTIFACT.json ...]
                          [--floor FLOOR.json]
Exit status: 0 ok, 1 regression or malformed artifact, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def fmt(value: float) -> str:
    """Whole numbers for throughputs, three digits for ratios."""
    return f"{value:.0f}" if abs(value) >= 100 else f"{value:.3g}"


def check_counters(bench: str, counters: dict, floors: dict,
                   tolerance: float) -> list[str]:
    failures = []
    for key, baseline in floors.items():
        if key not in counters:
            failures.append(f"{bench}: missing counter {key!r}")
            continue
        value = float(counters[key])
        minimum = float(baseline) * (1.0 - tolerance)
        print(f"{bench}: {key} = {fmt(value)} "
              f"(floor {fmt(float(baseline))}, minimum after "
              f"{tolerance:.0%} tolerance: {fmt(minimum)})")
        if value < minimum:
            failures.append(
                f"{bench}: REGRESSION — {key} = {fmt(value)} is more than "
                f"{tolerance:.0%} below the {fmt(float(baseline))} floor")
    return failures


def check_peak_parity(counters: dict) -> list[str]:
    """Every streaming workload's stream/pipe peak counts must match batch."""
    failures = []
    for key, value in counters.items():
        if not key.endswith(".batch_peaks"):
            continue
        prefix = key[: -len("batch_peaks")]
        batch = int(value)
        for mode in ("stream_peaks", "pipe_peaks"):
            other = counters.get(prefix + mode)
            if other is None or int(other) != batch:
                failures.append(
                    f"streaming_analysis: {prefix}{mode} = {other} does not "
                    f"match {key} = {batch} — streaming lost or duplicated "
                    f"peaks")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("artifacts", type=Path, nargs="+",
                        help="BENCH_*.json files from the smoke runs")
    parser.add_argument("--floor", type=Path,
                        default=Path(__file__).with_name("dsp_floor.json"))
    args = parser.parse_args()

    try:
        floor = json.loads(args.floor.read_text())
    except (OSError, json.JSONDecodeError) as err:
        print(f"check_dsp_floor: cannot read floor file: {err}",
              file=sys.stderr)
        return 1
    tolerance = float(floor.get("allowed_regression", 0.25))

    failures: list[str] = []
    checked = set()
    for artifact_path in args.artifacts:
        try:
            artifact = json.loads(artifact_path.read_text())
        except (OSError, json.JSONDecodeError) as err:
            print(f"check_dsp_floor: cannot read {artifact_path}: {err}",
                  file=sys.stderr)
            return 1
        bench = artifact.get("bench")
        counters = artifact.get("counters", {})
        if bench not in floor or not isinstance(floor[bench], dict):
            failures.append(
                f"{artifact_path}: no floors for bench {bench!r}")
            continue
        checked.add(bench)
        failures += check_counters(bench, counters, floor[bench], tolerance)
        if bench == "streaming_analysis":
            failures += check_peak_parity(counters)

    expected = {k for k, v in floor.items() if isinstance(v, dict)}
    for bench in sorted(expected - checked):
        failures.append(f"check_dsp_floor: no artifact supplied for "
                        f"{bench!r}")

    for failure in failures:
        print(failure, file=sys.stderr)
    if failures:
        return 1
    print("check_dsp_floor: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
