#!/usr/bin/env python3
"""Cross-layer invariant lints the compiler cannot check.

Two families of repo-wide invariants live in conventions that span
files, so neither the C++ toolchain nor a unit test sees a violation:

1. Fault/chaos draw-stream collisions. Every deterministic draw is a
   counter-based hash keyed by a `k*Stream*` integer constant; two
   constants with the same value silently correlate two supposedly
   independent fault processes. All stream constants in src/ must be
   globally unique AND live inside the id range STREAM_ID_RANGES
   registers for their subsystem (fault ladder 1-199, chaos harness
   201-299, transfer engine 301-399), so new subsystems claim a block
   instead of squatting on the next free integer.

2. Raw synchronization primitives. std::mutex / std::lock_guard hide
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

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

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

STREAM_CONST_RE = re.compile(r"\b(k\w*Stream\w*)\s*=\s*(\d+)")


def cpp_files(dirs):
    for top in dirs:
        for path in sorted((REPO_ROOT / top).rglob("*")):
            if path.suffix in (".cc", ".h"):
                yield path


def strip_comments(text):
    """Drops // and /* */ comments so prose mentioning a banned token
    is not flagged. String literals containing comment markers do not
    occur in this tree's sync code."""
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


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

    constants = collect_stream_constants()
    violations = check_stream_ids(constants) + check_raw_primitives()

    if violations:
        for violation in violations:
            print(f"lint_invariants: FAIL: {violation}",
                  file=sys.stderr)
        print(f"lint_invariants: {len(violations)} violation(s)",
              file=sys.stderr)
        sys.exit(1)

    print(
        "lint_invariants: OK "
        f"({len(constants)} draw-stream ids, raw-primitive ban clean)"
    )


if __name__ == "__main__":
    main()
