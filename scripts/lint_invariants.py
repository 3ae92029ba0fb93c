#!/usr/bin/env python3
"""Cross-layer invariant lints the compiler cannot check.

Three families of repo-wide invariants live in conventions that span
languages, so neither the C++ toolchain nor a Python unit test sees a
violation:

1. Metric-name drift. scripts/check_metrics.py enforces a required-key
   schema over the --metrics-out snapshots; the names themselves are
   string literals inside C++ publish calls. This lint extracts every
   metric name the C++ tree publishes (plus a small, explicitly listed
   set of dynamically concatenated producers) and diffs it against
   `check_metrics.py --dump-schema`, failing on BOTH directions of
   drift: a schema key no C++ publishes (the gate can never pass) and
   a published name under a schema-gated prefix that the schema does
   not list (the gate silently stops covering it).

2. Fault/chaos draw-stream collisions. Every deterministic draw is a
   counter-based hash keyed by a `k*Stream*` integer constant; two
   constants with the same value silently correlate two supposedly
   independent fault processes. All stream constants in src/ must be
   globally unique AND live inside the id range STREAM_ID_RANGES
   registers for their subsystem (fault ladder 1-199, chaos harness
   201-299, transfer engine 301-399), so new subsystems claim a block
   instead of squatting on the next free integer.

3. Raw synchronization primitives. std::mutex / std::lock_guard hide
   from both Clang's -Wthread-safety analysis and the runtime
   lock-order tracker (src/analysis/lockorder.h), and raw
   std::this_thread::sleep_for breaks ManualClock determinism. All
   three are banned outside an explicit allowlist: code uses the
   annotated Mutex/MutexLock/CondVar (common/thread_annotations.h) and
   Clock::sleepFor (common/clock.h) instead. Tests may sleep (they
   wait on real background threads) but may not use raw mutexes.

Usage: lint_invariants.py            # lint the tree, exit 1 on drift
       lint_invariants.py --self-test  # prove each check still fires
"""

import json
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# Directories scanned for metric literals and stream constants.
CPP_SCAN_DIRS = ["src", "bench"]

# Metric names built by concatenation at runtime: the literal extractor
# cannot see them, so each is declared here with the file that must
# still contain its producing fragment. `covers_gauge_patterns` lists
# the schema gauge_patterns the producer satisfies; the lint fails if
# the fragment disappears while the schema still requires the names.
DYNAMIC_PRODUCERS = [
    {
        "pattern": r"engine\.role\..+\.(ccs_s|lut_s)",
        "file": "src/runtime/engine.cc",
        "fragment": '"engine.role."',
        "covers_gauge_patterns": [
            r"engine\.role\..+\.ccs_s",
            r"engine\.role\..+\.lut_s",
        ],
    },
    {
        "pattern": r"serving\.live\.breaker\.(state|opens|closes|probes)",
        "file": "src/runtime/resilience.cc",
        "fragment": 'metric_prefix + ".',
        "covers_gauge_patterns": [],
    },
]

# A published name under one of these prefixes is part of a schema-
# gated family: check_metrics.py makes promises about it, so it must
# appear in the dumped schema. Names outside (bench-local kernels.*,
# internal lut.*, ...) may stay schema-free.
SCHEMA_GATED_PREFIXES = [
    "analysis.",
    "backend.",
    "chaos.",
    "fault.",
    "serving.live.",
    "transfer.",
    "verify.",
]

# Draw-stream id registry: (path prefix, lo, hi) — every k*Stream*
# constant must fall in the inclusive range its defining file's first
# matching prefix claims. More specific prefixes come first.
STREAM_ID_RANGES = [
    ("src/transfer/", 301, 399),
    ("src/fault/chaos", 201, 299),
    ("src/fault/", 1, 199),
]

# The only files allowed to touch the raw primitives: the annotated
# wrappers themselves, the Clock that owns real sleeping, and the
# lock-order tracker (whose internal lock must be untracked).
RAW_PRIMITIVE_ALLOWLIST = {
    "src/common/thread_annotations.h",
    "src/common/clock.h",
    "src/analysis/lockorder.cc",
}

RAW_PRIMITIVE_PATTERNS = [
    (r"std::mutex\b", "std::mutex (use pimdl::Mutex)"),
    (r"std::lock_guard\b", "std::lock_guard (use pimdl::MutexLock)"),
    (
        r"std::this_thread::sleep_for\b",
        "std::this_thread::sleep_for (use Clock::sleepFor)",
    ),
]

METRIC_CALL_RE = re.compile(r"\b(?:counter|gauge|histogram)\(\s*\"([^\"]+)\"")
STREAM_CONST_RE = re.compile(r"\b(k\w*Stream\w*)\s*=\s*(\d+)")


def cpp_files(dirs):
    for top in dirs:
        for path in sorted((REPO_ROOT / top).rglob("*")):
            if path.suffix in (".cc", ".h"):
                yield path


def strip_comments(text):
    """Drops // and /* */ comments so prose mentioning a banned token
    (or a metric name) is not flagged. String literals containing
    comment markers do not occur in this tree's sync/metric code."""
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def extract_metric_literals(dirs=CPP_SCAN_DIRS):
    """All metric-name string literals passed to counter()/gauge()/
    histogram() in the C++ tree. A literal ending in '.' is a
    concatenation prefix (dynamic producer), tracked separately."""
    literals = set()
    prefixes = set()
    for path in cpp_files(dirs):
        for name in METRIC_CALL_RE.findall(
            strip_comments(path.read_text())
        ):
            (prefixes if name.endswith(".") else literals).add(name)
    return literals, prefixes


def load_schema():
    out = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts/check_metrics.py"),
         "--dump-schema"],
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout)


def schema_names(schema):
    """Flat (names, gauge_patterns) across every schema mode."""
    names = set()
    patterns = set()
    for mode in schema["modes"].values():
        names.update(mode["counters"])
        names.update(mode["gauges"])
        names.update(mode["histograms"])
        patterns.update(mode["gauge_patterns"])
    return names, patterns


def check_schema_to_cpp(schema, literals):
    """Direction 1: every key the schema requires must still have a
    producer in the C++ tree, literal or declared-dynamic."""
    violations = []
    names, patterns = schema_names(schema)
    dynamic = [
        (entry, re.compile(entry["pattern"]))
        for entry in DYNAMIC_PRODUCERS
    ]

    for entry, _ in dynamic:
        producer = REPO_ROOT / entry["file"]
        if not producer.is_file() or entry[
            "fragment"
        ] not in producer.read_text():
            violations.append(
                f"dynamic metric producer for {entry['pattern']!r} "
                f"vanished: {entry['file']} no longer contains "
                f"{entry['fragment']!r}"
            )

    for name in sorted(names):
        if name in literals:
            continue
        if any(rx.fullmatch(name) for _, rx in dynamic):
            continue
        violations.append(
            f"schema requires metric {name!r} but no C++ publish call "
            "produces it (check_metrics.py can never pass)"
        )

    covered = {
        pattern
        for entry in DYNAMIC_PRODUCERS
        for pattern in entry["covers_gauge_patterns"]
    }
    for pattern in sorted(patterns):
        rx = re.compile(pattern)
        if any(rx.fullmatch(name) for name in literals):
            continue
        if pattern in covered:
            continue
        violations.append(
            f"schema gauge pattern {pattern!r} matches no published "
            "literal and no declared dynamic producer covers it"
        )
    return violations


def check_cpp_to_schema(schema, literals):
    """Direction 2: every published name under a schema-gated prefix
    must be listed in the schema, or the gate silently narrows."""
    violations = []
    names, patterns = schema_names(schema)
    pattern_rx = [re.compile(p) for p in patterns]
    for name in sorted(literals):
        if not any(
            name.startswith(prefix) for prefix in SCHEMA_GATED_PREFIXES
        ):
            continue
        if name in names:
            continue
        if any(rx.fullmatch(name) for rx in pattern_rx):
            continue
        violations.append(
            f"C++ publishes metric {name!r} under a schema-gated "
            "prefix but check_metrics.py does not require it "
            "(--dump-schema drift)"
        )
    return violations


def collect_stream_constants(dirs=("src",)):
    constants = []
    for path in cpp_files(dirs):
        text = strip_comments(path.read_text())
        for lineno, line in enumerate(text.splitlines(), start=1):
            for name, value in STREAM_CONST_RE.findall(line):
                rel = path.relative_to(REPO_ROOT)
                constants.append((f"{rel}:{lineno}", name, int(value)))
    return constants


def check_stream_ids(constants, ranges=None):
    violations = []
    by_value = {}
    by_name = {}
    for where, name, value in constants:
        if value in by_value and by_name.get(name) != value:
            other_where, other_name = by_value[value]
            violations.append(
                f"draw-stream collision: {name} at {where} and "
                f"{other_name} at {other_where} both use stream id "
                f"{value} — their fault processes are correlated"
            )
        by_value.setdefault(value, (where, name))
        by_name[name] = value
    if not constants:
        violations.append(
            "no k*Stream constants found under src/ — the stream-id "
            "scan pattern no longer matches the tree"
        )
    for where, name, value in constants:
        claimed = next(
            (
                (prefix, lo, hi)
                for prefix, lo, hi in (
                    STREAM_ID_RANGES if ranges is None else ranges
                )
                if where.startswith(prefix)
            ),
            None,
        )
        if claimed is None:
            violations.append(
                f"stream constant {name} at {where} lives in a file "
                "with no STREAM_ID_RANGES entry — register a block for "
                "its subsystem in scripts/lint_invariants.py"
            )
        elif not claimed[1] <= value <= claimed[2]:
            violations.append(
                f"stream id {value} ({name} at {where}) is outside the "
                f"[{claimed[1]}, {claimed[2]}] block registered for "
                f"{claimed[0]!r}"
            )
    return violations


def check_raw_primitives(contents=None):
    """@p contents: {relpath: text}; defaults to the real tree. src/
    and bench/ are held to all three bans; tests/ only to the mutex
    bans (tests legitimately sleep while herding real threads)."""
    if contents is None:
        contents = {}
        for top in ("src", "bench", "tests"):
            for path in cpp_files((top,)):
                rel = str(path.relative_to(REPO_ROOT))
                contents[rel] = path.read_text()
    violations = []
    for rel in sorted(contents):
        if rel in RAW_PRIMITIVE_ALLOWLIST:
            continue
        bans = RAW_PRIMITIVE_PATTERNS
        if rel.startswith("tests/"):
            bans = RAW_PRIMITIVE_PATTERNS[:2]
        text = strip_comments(contents[rel])
        for lineno, line in enumerate(text.splitlines(), start=1):
            for pattern, what in bans:
                if re.search(pattern, line):
                    violations.append(
                        f"{rel}:{lineno}: banned raw primitive "
                        f"{what}; allowlist lives in "
                        "scripts/lint_invariants.py"
                    )
    return violations


def self_test():
    """Negative tests: each checker must fire on a seeded violation
    and stay quiet on the clean fixture."""
    failures = []

    schema = {
        "modes": {
            "base": {
                "counters": ["real.counter"],
                "gauges": [],
                "gauge_patterns": [],
                "histograms": [],
            }
        }
    }
    ghost = dict(schema)
    ghost["modes"] = {
        "base": dict(
            schema["modes"]["base"],
            counters=["real.counter", "lint.selftest.ghost"],
        )
    }
    if not check_schema_to_cpp(ghost, {"real.counter"}):
        failures.append("schema->C++ drift not detected")
    if check_schema_to_cpp(schema, {"real.counter"}):
        failures.append("schema->C++ false positive on clean fixture")

    if not check_cpp_to_schema(
        schema, {"real.counter", "fault.selftest.unlisted"}
    ):
        failures.append("C++->schema drift not detected")
    if check_cpp_to_schema(schema, {"real.counter"}):
        failures.append("C++->schema false positive on clean fixture")

    ranges = [("src/a/", 1, 99), ("src/b/", 100, 199)]
    colliding = [
        ("src/a/a.cc:1", "kStreamOne", 7),
        ("src/b/b.cc:2", "kStreamTwo", 7),
    ]
    if not check_stream_ids(colliding, ranges):
        failures.append("stream-id collision not detected")
    clean = [
        ("src/a/a.cc:1", "kStreamOne", 7),
        ("src/b/b.cc:2", "kStreamTwo", 108),
    ]
    if check_stream_ids(clean, ranges):
        failures.append("stream-id false positive on unique ids")
    out_of_range = [
        ("src/a/a.cc:1", "kStreamOne", 150),
        ("src/b/b.cc:2", "kStreamTwo", 108),
    ]
    if not check_stream_ids(out_of_range, ranges):
        failures.append("out-of-block stream id not detected")
    unregistered = [("src/c/c.cc:1", "kStreamThree", 7)]
    if not check_stream_ids(unregistered, ranges):
        failures.append("unregistered stream-id file not detected")

    seeded = {
        "src/runtime/bad.cc": "std::lock_guard<std::mutex> lock(mu);",
        "tests/test_ok.cc": "std::this_thread::sleep_for(ms);",
        "src/common/thread_annotations.h": "std::mutex mu_;",
    }
    raw = check_raw_primitives(seeded)
    if not any("src/runtime/bad.cc" in v for v in raw):
        failures.append("raw-primitive ban not detected")
    if any("test_ok.cc" in v or "thread_annotations" in v for v in raw):
        failures.append("raw-primitive ban fired on allowed use")

    if failures:
        for failure in failures:
            print(f"lint_invariants: SELF-TEST FAIL: {failure}",
                  file=sys.stderr)
        return 1
    print("lint_invariants: self-test OK (all checks fire)")
    return 0


def main():
    if sys.argv[1:] == ["--self-test"]:
        sys.exit(self_test())
    if sys.argv[1:]:
        print(f"usage: {sys.argv[0]} [--self-test]", file=sys.stderr)
        sys.exit(2)

    schema = load_schema()
    literals, prefixes = extract_metric_literals()
    declared = {entry["fragment"].strip('"') for entry in
                DYNAMIC_PRODUCERS if entry["fragment"].startswith('"')}
    violations = []
    for prefix in sorted(prefixes - declared):
        violations.append(
            f"metric publish call concatenates onto literal prefix "
            f"{prefix!r} but no DYNAMIC_PRODUCERS entry declares it"
        )
    violations += check_schema_to_cpp(schema, literals)
    violations += check_cpp_to_schema(schema, literals)
    constants = collect_stream_constants()
    violations += check_stream_ids(constants)
    violations += check_raw_primitives()

    if violations:
        for violation in violations:
            print(f"lint_invariants: FAIL: {violation}",
                  file=sys.stderr)
        print(f"lint_invariants: {len(violations)} violation(s)",
              file=sys.stderr)
        sys.exit(1)

    names, patterns = schema_names(schema)
    print(
        "lint_invariants: OK "
        f"({len(literals)} published metric names, "
        f"{len(names)} schema keys + {len(patterns)} patterns, "
        f"{len(constants)} draw-stream ids, raw-primitive ban clean)"
    )


if __name__ == "__main__":
    main()
