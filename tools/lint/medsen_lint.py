#!/usr/bin/env python3
"""MedSen invariant linter.

Enforces project-specific correctness contracts that generic tooling
(clang-tidy, sanitizers) cannot express:

  determinism       No wall-clock or ambient-entropy calls (rand,
                    random_device, system_clock, time(), ...) in the
                    deterministic subsystems `src/sim`, `src/core`,
                    `src/cloud`. Bit-identical replay of an acquisition
                    is part of the security argument: the sensor-side
                    key schedule and the cloud analysis must agree on
                    every bit, so ambient entropy is confined to
                    explicitly seeded RNGs and the SimulatedClock.

  decoder-tests     Every wire decoder (a function named `deserialize*`
                    or `*_decode` declared in a public header) must have
                    a test that rejects trailing bytes. Strict decoding
                    is the cloud's first line of defense against a
                    hostile relay; a decoder nobody fuzzes for trailing
                    garbage regresses silently.

  unordered-serial  No iteration over an unordered container feeding
                    serialized output. Hash-map order is
                    implementation-defined, so such loops break the
                    bit-deterministic wire format.

  fault-stream      The fault-injection API (src/sim/faults.h) must
                    draw every realization from its own streams built
                    from FaultConfig::seed: no public signature may
                    accept a `ChaChaRng&` from a caller. Sharing the
                    base simulation's RNG would advance it, perturbing
                    the particle arrivals and noise whenever a fault is
                    toggled — and the faults-disabled golden outputs are
                    required to be bit-identical. (Internal helpers in
                    faults.cpp may pass locally built fault streams.)

  cloud-mutex       No `std::mutex` (or timed/recursive/shared variants)
                    members or globals in `src/cloud`. The service layer
                    is sharded: all locking lives behind util::Sharded's
                    per-shard mutexes, and counters are relaxed atomics.
                    A stray mutex member reintroduces exactly the
                    process-wide serialization point the sharding refactor
                    removed, and it does so silently — throughput decays,
                    nothing fails. (util::Sharded itself lives in
                    src/util, outside the rule's scope.)

  ct-compare        No variable-time comparison of MAC/key material in
                    `src/crypto`, `src/cloud`, `src/net`: memcmp() and
                    ==/!= on identifiers that look like secrets (mac,
                    digest, proof, tag, *_key) are banned. Early-exit
                    comparison is a byte-granular timing oracle on the
                    very tags that authenticate the untrusted relay's
                    traffic; every verifier must route through
                    crypto::constant_time_equal (or digest_equal, which
                    delegates to it). Container self-management
                    (`key != keys.end()`, `== nullptr`) is out of scope.

  dsp-transcendental
                    No std::sin/std::cos inside loop bodies in the DSP
                    kernel files (src/dsp demod/oscillator/detrend/
                    polyfit/peak_detect/filters). The analysis hot path
                    generates reference carriers with the PhaseOscillator
                    rotation recurrence; a per-sample libm trig call is a
                    ~20x slowdown that creeps back in silently. The
                    oscillator's block-cadence resync (every 256 samples)
                    is the sanctioned exception and carries an allow
                    comment. Trig-heavy modules that are not sample
                    kernels (noise.cpp) are out of scope.

  durable-write     No direct file writes (std::ofstream, std::fstream,
                    fopen/FILE*) in `src/cloud`. Every byte the service
                    persists must flow through the crash-safe helpers —
                    the WAL (cloud::Journal on util::DurableFile) or
                    util::write_file_atomic — so a power cut can never
                    leave a half-written live file. A raw ofstream write
                    reintroduces exactly the torn-state bug class the
                    durability layer closed, and it passes every test
                    that doesn't crash mid-write.

Suppress a finding by appending `// medsen-lint: allow(<rule>)` to the
offending line, where <rule> is one of: determinism, decoder-tests,
unordered-serial, fault-stream, cloud-mutex, dsp-transcendental,
ct-compare, durable-write.

Exit status: 0 when clean, 1 when findings were reported, 2 on usage
errors. Run from anywhere: `python3 tools/lint/medsen_lint.py [--root DIR]`.
`--format=json` emits a machine-readable report (stable rule ids in the
`rule` field) for CI artifact upload; `--output FILE` writes the JSON
report to a file regardless of the console format.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

DETERMINISTIC_DIRS = ("src/sim", "src/core", "src/cloud")

# Ambient entropy / wall-clock tokens banned in deterministic subsystems.
# `time(` needs care: `start_time(`, `.time(` and `time_series` are all
# legitimate, so the pattern requires a true call of the free function.
DETERMINISM_PATTERNS = [
    (re.compile(r"(?<![\w.:])rand\s*\("), "rand()"),
    (re.compile(r"(?<![\w.:])srand\s*\("), "srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
    (re.compile(r"(?<![\w.:>])time\s*\(\s*(?:NULL|nullptr|0)?\s*\)"),
     "time()"),
    (re.compile(r"\bgettimeofday\b"), "gettimeofday()"),
    (re.compile(r"\bgetentropy\b"), "getentropy()"),
    (re.compile(r"\bmt19937(?:_64)?\b"), "std::mt19937"),
    (re.compile(r"\bdefault_random_engine\b"), "std::default_random_engine"),
]

# The fault layer must own its RNG streams (seeded from FaultConfig::seed);
# a public signature accepting a caller's ChaChaRng would let fault draws
# advance the base simulation's stream. The header is the contract; the
# .cpp may pass locally built fault streams between internal helpers.
FAULT_STREAM_FILES = ("src/sim/faults.h",)
FAULT_STREAM_PARAM = re.compile(r"ChaChaRng\s*&")

DECODER_DECL = re.compile(
    r"\b(?P<name>deserialize(?:_[a-z0-9_]+)?|[a-z0-9_]+_decode)\s*\(")

CLASS_DECL = re.compile(r"^\s*(?:class|struct)\s+(?P<name>\w+)")

UNORDERED_DECL = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s+(?P<name>\w+)\s*[;{=]")

RANGE_FOR = re.compile(r"\bfor\s*\(.*?:\s*(?P<seq>[\w.\->]+)\s*\)")

# Writing into the wire format: ByteWriter primitives or serialize calls.
SERIAL_SINK = re.compile(
    r"ByteWriter|serialize|\.u8\(|\.u16\(|\.u32\(|\.u64\(|\.f64\(|"
    r"\.blob\(|\.str\(|\.bytes\(|frame_encode")

# A mutex-flavored member/global declaration in the sharded service
# layer: `std::mutex m_;`, `mutable std::shared_mutex lock;`, etc.
# Matching the declaration (type then identifier then ; or {}) skips
# lock_guard/unique_lock *uses*, which name the type in template args.
CLOUD_MUTEX_DIRS = ("src/cloud",)
CLOUD_MUTEX_DECL = re.compile(
    r"\bstd\s*::\s*(?:timed_|recursive_|shared_)*mutex\b"
    r"\s+\w+\s*(?:;|\{\s*\})")

# Secret-bearing comparison sites: memcmp anywhere in the security
# plane, and ==/!= where either operand names MAC/key material. The
# identifier heuristic intentionally skips iterator/pointer idioms
# (`!= keys.end()`, `== nullptr`) and size fields (`mac_key.size()`).
CT_COMPARE_DIRS = ("src/crypto", "src/cloud", "src/net")
CT_MEMCMP = re.compile(r"(?<![\w.:])(?:std\s*::\s*)?memcmp\s*\(")
CT_SECRET_NAME = (
    r"[A-Za-z_]*(?:mac|digest|proof|tag)[A-Za-z0-9_]*|[A-Za-z_]\w*_key\w*")
CT_SECRET_CMP = re.compile(
    r"(?:(?:" + CT_SECRET_NAME + r")(?:\.\w+)*\s*[=!]=|"
    r"[=!]=\s*(?:" + CT_SECRET_NAME + r")\b)")
CT_CMP_EXEMPT = re.compile(
    r"[=!]=\s*(?:nullptr|NULL\b)|\.(?:end|begin|size|empty|length)\s*\(|"
    r"\.has_value\s*\(|[=!]=\s*0\b")

# Direct file-write primitives banned in the durable service layer:
# persistence must ride cloud::Journal / util::write_file_atomic, which
# own the fsync + rename discipline. std::ifstream is allowed — reading
# cannot tear state — but std::fstream is not (it opens for writing).
DURABLE_WRITE_DIRS = ("src/cloud",)
DURABLE_WRITE_PATTERNS = [
    (re.compile(r"\bstd\s*::\s*w?(?:of|f)stream\b"),
     "std::ofstream/std::fstream"),
    (re.compile(r"(?<![\w.:])fopen\s*\("), "fopen()"),
    (re.compile(r"\bFILE\s*\*"), "FILE*"),
]

# DSP sample-kernel files where per-sample trig is banned inside loops.
# FFT twiddle factors and noise synthesis are inherently trigonometric
# and deliberately out of scope.
DSP_KERNEL_FILES = (
    "src/dsp/oscillator.h", "src/dsp/oscillator.cpp",
    "src/dsp/filters.h", "src/dsp/filters.cpp",
    "src/dsp/demod.h", "src/dsp/demod.cpp",
    "src/dsp/detrend.h", "src/dsp/detrend.cpp",
    "src/dsp/polyfit.h", "src/dsp/polyfit.cpp",
    "src/dsp/peak_detect.h", "src/dsp/peak_detect.cpp",
)
TRIG_CALL = re.compile(r"\bstd\s*::\s*(?:sin|cos)\s*\(")
LOOP_HEAD = re.compile(r"\b(?:for|while)\s*\(")
LOOP_TOKEN = re.compile(r"\b(?:for|while)\s*\(|[{}]")

ALLOW = re.compile(r"//\s*medsen-lint:\s*allow\((?P<rules>[\w\-, ]+)\)")

# The canonical finding format every check emits; parsed back into
# structured records for --format=json. Rule ids are stable API.
FINDING_LINE = re.compile(
    r"^(?P<file>[^:]+):(?P<line>\d+): \[(?P<rule>[\w\-]+)\] "
    r"(?P<message>.*)$", re.DOTALL)

RULE_IDS = ("determinism", "decoder-tests", "unordered-serial",
            "fault-stream", "cloud-mutex", "ct-compare",
            "dsp-transcendental", "durable-write")

TEST_BLOCK = re.compile(r"^TEST(?:_F|_P)?\s*\(", re.MULTILINE)


def allowed(line: str, rule: str) -> bool:
    m = ALLOW.search(line)
    return bool(m) and rule in [r.strip() for r in m.group("rules").split(",")]


def strip_comments_and_strings(line: str) -> str:
    """Best-effort removal of string literals and // comments so banned
    tokens inside log messages or comments do not trip the linter."""
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    return line.split("//", 1)[0]


def check_determinism(root: Path, findings: list[str]) -> None:
    for sub in DETERMINISTIC_DIRS:
        for path in sorted((root / sub).rglob("*")):
            if path.suffix not in (".h", ".cpp"):
                continue
            for lineno, raw in enumerate(
                    path.read_text().splitlines(), start=1):
                if allowed(raw, "determinism"):
                    continue
                code = strip_comments_and_strings(raw)
                for pattern, label in DETERMINISM_PATTERNS:
                    if pattern.search(code):
                        findings.append(
                            f"{path.relative_to(root)}:{lineno}: "
                            f"[determinism] {label} in a deterministic "
                            f"subsystem; use the seeded RNG / "
                            f"SimulatedClock utilities")


def check_fault_streams(root: Path, findings: list[str]) -> None:
    for rel in FAULT_STREAM_FILES:
        path = root / rel
        if not path.is_file():
            continue
        for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
            if allowed(raw, "fault-stream"):
                continue
            if FAULT_STREAM_PARAM.search(strip_comments_and_strings(raw)):
                findings.append(
                    f"{path.relative_to(root)}:{lineno}: [fault-stream] "
                    f"the fault API must not take a ChaChaRng& — build "
                    f"its own stream from FaultConfig::seed so fault draws "
                    f"never advance the base simulation's RNG")


def check_cloud_mutex(root: Path, findings: list[str]) -> None:
    for sub in CLOUD_MUTEX_DIRS:
        for path in sorted((root / sub).rglob("*")):
            if path.suffix not in (".h", ".cpp"):
                continue
            for lineno, raw in enumerate(
                    path.read_text().splitlines(), start=1):
                if allowed(raw, "cloud-mutex"):
                    continue
                if CLOUD_MUTEX_DECL.search(strip_comments_and_strings(raw)):
                    findings.append(
                        f"{path.relative_to(root)}:{lineno}: [cloud-mutex] "
                        f"std::mutex member in the sharded service layer; "
                        f"route state through util::Sharded (per-shard "
                        f"locks) or use relaxed atomics for counters")


def check_ct_compare(root: Path, findings: list[str]) -> None:
    for sub in CT_COMPARE_DIRS:
        for path in sorted((root / sub).rglob("*")):
            if path.suffix not in (".h", ".cpp"):
                continue
            for lineno, raw in enumerate(
                    path.read_text().splitlines(), start=1):
                if allowed(raw, "ct-compare"):
                    continue
                code = strip_comments_and_strings(raw)
                if CT_MEMCMP.search(code):
                    findings.append(
                        f"{path.relative_to(root)}:{lineno}: [ct-compare] "
                        f"memcmp in the security plane is a byte-granular "
                        f"timing oracle; compare MAC/key material with "
                        f"crypto::constant_time_equal")
                    continue
                if CT_SECRET_CMP.search(code) and not CT_CMP_EXEMPT.search(
                        code):
                    findings.append(
                        f"{path.relative_to(root)}:{lineno}: [ct-compare] "
                        f"==/!= on MAC/key material leaks a timing oracle; "
                        f"use crypto::constant_time_equal (or digest_equal)")


def check_durable_write(root: Path, findings: list[str]) -> None:
    for sub in DURABLE_WRITE_DIRS:
        for path in sorted((root / sub).rglob("*")):
            if path.suffix not in (".h", ".cpp"):
                continue
            for lineno, raw in enumerate(
                    path.read_text().splitlines(), start=1):
                if allowed(raw, "durable-write"):
                    continue
                code = strip_comments_and_strings(raw)
                for pattern, label in DURABLE_WRITE_PATTERNS:
                    if pattern.search(code):
                        findings.append(
                            f"{path.relative_to(root)}:{lineno}: "
                            f"[durable-write] {label} in the durable "
                            f"service layer; persist through "
                            f"cloud::Journal or util::write_file_atomic "
                            f"so a crash can never tear a live file")


def check_dsp_transcendental(root: Path, findings: list[str]) -> None:
    """Flag std::sin/std::cos inside loop bodies of DSP kernel files.

    Brace-depth tracking: a loop head (`for (`/`while (`) arms a pending
    marker; the next `{` pushes the loop body's depth. A trig call while
    any loop body is open (or on a loop-head / braceless-body line) is a
    finding unless the line carries an allow comment.
    """
    for rel in DSP_KERNEL_FILES:
        path = root / rel
        if not path.is_file():
            continue
        depth = 0
        loop_stack: list[int] = []  # depths at which loop bodies opened
        pending = 0                 # loop heads awaiting their open brace
        for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
            code = strip_comments_and_strings(raw)
            in_loop = bool(loop_stack) or pending or LOOP_HEAD.search(code)
            if (TRIG_CALL.search(code) and in_loop
                    and not allowed(raw, "dsp-transcendental")):
                findings.append(
                    f"{path.relative_to(root)}:{lineno}: "
                    f"[dsp-transcendental] per-sample std::sin/std::cos "
                    f"in a DSP kernel loop; use the PhaseOscillator "
                    f"recurrence (block-cadence resyncs may carry "
                    f"`// medsen-lint: allow(dsp-transcendental)`)")
            for m in LOOP_TOKEN.finditer(code):
                tok = m.group(0)
                if tok == "{":
                    depth += 1
                    if pending:
                        loop_stack.append(depth)
                        pending -= 1
                elif tok == "}":
                    if loop_stack and loop_stack[-1] == depth:
                        loop_stack.pop()
                    depth -= 1
                else:
                    pending += 1
            if pending and "{" not in code:
                # A braceless single-statement body ends at `;` outside
                # the loop-head parentheses.
                flat = code
                while True:
                    reduced = re.sub(r"\([^()]*\)", "", flat)
                    if reduced == flat:
                        break
                    flat = reduced
                if ";" in flat:
                    pending = 0


def collect_decoders(root: Path) -> list[tuple[Path, int, str]]:
    """Find (header, line, qualified-callname) for every public decoder."""
    decoders = []
    for path in sorted((root / "src").rglob("*.h")):
        enclosing: list[tuple[str, int]] = []  # (class name, depth at open)
        depth = 0
        for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
            code = strip_comments_and_strings(raw)
            m = CLASS_DECL.match(code)
            if m and "{" in code and ";" not in code.split("{", 1)[0]:
                enclosing.append((m.group("name"), depth))
            dm = DECODER_DECL.search(code)
            if dm and not allowed(raw, "decoder-tests"):
                name = dm.group("name")
                if enclosing and name == "deserialize":
                    callname = f"{enclosing[-1][0]}::deserialize"
                else:
                    callname = name
                decoders.append((path, lineno, callname))
            depth += code.count("{") - code.count("}")
            while enclosing and depth <= enclosing[-1][1]:
                enclosing.pop()
    return decoders


def check_decoder_tests(root: Path, findings: list[str]) -> None:
    test_blocks: list[str] = []
    for path in sorted((root / "tests").rglob("*.cpp")):
        text = path.read_text()
        starts = [m.start() for m in TEST_BLOCK.finditer(text)]
        for i, start in enumerate(starts):
            end = starts[i + 1] if i + 1 < len(starts) else len(text)
            test_blocks.append(text[start:end])
    for path, lineno, callname in collect_decoders(root):
        covered = any(
            callname in block and re.search(r"trailing", block, re.IGNORECASE)
            for block in test_blocks)
        if not covered:
            findings.append(
                f"{path.relative_to(root)}:{lineno}: [decoder-tests] "
                f"`{callname}` has no trailing-bytes rejection test; add a "
                f"TEST that feeds it valid bytes plus appended garbage and "
                f"expects a throw")


def check_unordered_serialization(root: Path, findings: list[str]) -> None:
    # Names declared with an unordered container type, scoped per file
    # stem: a member declared in foo.h is visible to foo.h and foo.cpp.
    # (Member names repeat across classes — `keys_` is an unordered map
    # in the device registry but a vector in the key schedule — so a
    # repo-wide name pool would cross wires.)
    sources = [p for p in sorted((root / "src").rglob("*"))
               if p.suffix in (".h", ".cpp")]
    names_by_stem: dict[Path, set[str]] = {}
    for path in sources:
        for raw in path.read_text().splitlines():
            m = UNORDERED_DECL.search(strip_comments_and_strings(raw))
            if m:
                names_by_stem.setdefault(
                    path.parent / path.stem, set()).add(m.group("name"))
    if not names_by_stem:
        return
    for path in sources:
        unordered_names = names_by_stem.get(path.parent / path.stem, set())
        if not unordered_names:
            continue
        lines = path.read_text().splitlines()
        for lineno, raw in enumerate(lines, start=1):
            if allowed(raw, "unordered-serial"):
                continue
            m = RANGE_FOR.search(strip_comments_and_strings(raw))
            if not m:
                continue
            seq = m.group("seq").split(".")[-1].split(">")[-1]
            if seq not in unordered_names:
                continue
            # Does the loop feed the wire format? Look at the loop body
            # (a window is enough: serialization loops are short).
            body = "\n".join(lines[lineno - 1:lineno + 14])
            if SERIAL_SINK.search(body):
                findings.append(
                    f"{path.relative_to(root)}:{lineno}: "
                    f"[unordered-serial] iteration over unordered "
                    f"container `{seq}` feeds serialized output; hash "
                    f"order is not deterministic — sort first or use an "
                    f"ordered container")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parents[2],
                        help="repository root (default: two levels up)")
    parser.add_argument("--list-decoders", action="store_true",
                        help="print discovered decoders and exit")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text",
                        help="console output format (default: text)")
    parser.add_argument("--output", type=Path, default=None,
                        help="also write the JSON report to this file")
    args = parser.parse_args()
    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"medsen_lint: no src/ under {root}", file=sys.stderr)
        return 2

    if args.list_decoders:
        for path, lineno, callname in collect_decoders(root):
            print(f"{path.relative_to(root)}:{lineno}: {callname}")
        return 0

    findings: list[str] = []
    check_determinism(root, findings)
    check_cloud_mutex(root, findings)
    check_fault_streams(root, findings)
    check_ct_compare(root, findings)
    check_durable_write(root, findings)
    check_dsp_transcendental(root, findings)
    check_decoder_tests(root, findings)
    check_unordered_serialization(root, findings)

    structured = []
    for finding in findings:
        m = FINDING_LINE.match(finding)
        if m:
            structured.append({
                "rule": m.group("rule"),
                "file": m.group("file"),
                "line": int(m.group("line")),
                "message": m.group("message"),
            })
        else:  # never expected; keep the finding visible regardless
            structured.append({"rule": "unknown", "file": "", "line": 0,
                               "message": finding})
    report = {
        "tool": "medsen-lint",
        "rules": list(RULE_IDS),
        "findings": structured,
        "summary": {"total": len(structured)},
    }
    if args.output:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(report, indent=2) + "\n")

    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        for finding in findings:
            print(finding)
    if findings:
        print(f"medsen_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    if args.format == "text":
        print("medsen_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
