#!/usr/bin/env python3
"""Build MedSen from source and run one benchmark workload.

    python3 perfbench/run.py --workload clinical_session --seed 1 \
        --seconds 45 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark program in perfbench/ and the
library, from the repository's own CMake files, are built together into
.bench_build/perfbench; state directories and traces go under
.bench_build/work. The last stdout line is the JSON result of the run;
see perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(BUILD, "work")
BINARY = os.path.join(BUILD, "perfbench", "medsen_perfbench")
WORKLOADS = ("clinical_session", "fleet_mixed", "handshake_durable")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def step(cmd, log, deadline):
    """Run a build command, appending its output to `log`. On timeout the
    command's whole process group (the compilers too) is killed."""
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise


def build():
    """Build the benchmark program and the library; False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    program = os.path.dirname(BINARY)
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", program,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", program, "-j", jobs],
    ]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            code = step(cmd, log, deadline)
        except (OSError, subprocess.TimeoutExpired) as error:
            print(f"perfbench: {' '.join(cmd)}: {error}", file=sys.stderr)
            return False
        if code != 0:
            with open(log) as out:
                tail = out.readlines()[-30:]
            print("perfbench: build failed:\n" + "".join(tail), file=sys.stderr)
            return False
    return True


def run(workload, seed, seconds, trace, extra=()):
    """Run the benchmark program once; return (exit code, stdout lines)."""
    os.makedirs(WORK, exist_ok=True)
    for name in os.listdir(WORK):
        if name.startswith("state-"):
            shutil.rmtree(os.path.join(WORK, name), ignore_errors=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", WORK, *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def counts_of(lines):
    for line in lines:
        if line.startswith("counts "):
            return json.loads(line[len("counts "):])
    return None


def selftest():
    """Same seed, same counts; another seed, another op sequence."""
    ops = {"clinical_session": 40, "fleet_mixed": 2000,
           "handshake_durable": 1000}
    ok = True
    for workload in WORKLOADS:
        extra = ("--ops", str(ops[workload]))
        results = [run(workload, seed, 60, 0, extra) for seed in (7, 7, 8)]
        counts = [counts_of(lines) for _, lines in results]
        if any(code != 0 for code, _ in results) or None in counts:
            print(f"selftest {workload}: a run failed", file=sys.stderr)
            ok = False
            continue
        same = counts[0] == counts[1]
        moved = counts[0]["sequence_digest"] != counts[2]["sequence_digest"]
        print(f"selftest {workload}: same seed identical={same}, "
              f"other seed changes sequence={moved}")
        if not same:
            diff = {k: (counts[0].get(k), counts[1].get(k))
                    for k in set(counts[0]) | set(counts[1])
                    if counts[0].get(k) != counts[1].get(k)}
            print(f"  differing counts: {diff}")
        ok = ok and same and moved
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that runs are deterministic per seed")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.selftest:
        return 0 if selftest() else 1
    code, lines = run(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
