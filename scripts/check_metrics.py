#!/usr/bin/env python3
"""Validate a pimdl metrics snapshot (--metrics-out artifact).

Metric names are declared once, in the C++ publish calls. This
validator knows only metric *families*: dotted name prefixes, each
published by one producer. A name belongs to the longest family that
prefixes it, so `engine.role.QKV.lut_s` is an `engine` metric and
`serving.live.completed` a `serving.live` one.

It checks, in order:

1. the schema id and the counters/gauges/histograms/trace sections;
2. that every histogram carries the 8 summary fields and ordered
   percentiles (p50 <= p95 <= p99);
3. for each --require FAMILY, that the family's producer published at
   least one metric;
4. that every histogram in a required family recorded samples;

then runs each required family's semantic checks (see CHECKS). The
only metric names in this file are the keys those checks read.

Usage: check_metrics.py <snapshot.json> [--require FAMILY]...
"""

import argparse
import json
import re
import sys

SCHEMA = "pimdl.metrics.v1"

HISTOGRAM_FIELDS = ["count", "sum", "min", "max", "mean", "p50", "p95", "p99"]


def fail(message):
    print(f"check_metrics: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def value(snap, section, name):
    """snap[section][name], or a FAIL naming the missing key."""
    try:
        return snap[section][name]
    except KeyError:
        fail(f"missing {section[:-1]} {name!r}")


def check_percentiles(snap, name, what):
    """Latency percentiles must be positive and ordered."""
    hist = value(snap, "histograms", name)
    if not 0 < hist["p50"] <= hist["p95"] <= hist["p99"]:
        fail(
            f"{what} latency percentiles not ordered: "
            f"p50={hist['p50']} p95={hist['p95']} p99={hist['p99']}"
        )


def check_engine(snap):
    # Regexes, so a role rename keeps passing as long as the per-role
    # CCS/LUT split itself is still published.
    for part in ("ccs_s", "lut_s"):
        pattern = rf"engine\.role\..+\.{part}"
        if not any(re.fullmatch(pattern, g) for g in snap["gauges"]):
            fail(f"no gauge matches {pattern!r}")


def check_serving_live(snap):
    if value(snap, "counters", "serving.live.completed") == 0:
        fail("live serving run completed no requests")
    check_percentiles(snap, "serving.live.request_latency_s",
                      "live serving")


def check_chaos(snap):
    # The chaos harness drives the resilient live runtime, so its
    # control-plane gauges must be plausible too.
    state = value(snap, "gauges", "serving.live.breaker.state")
    if state not in (0, 1, 2):
        fail(f"implausible breaker state gauge {state!r}")
    if value(snap, "gauges", "serving.live.inflight_limit") <= 0:
        fail("in-flight limit gauge must be positive")


def check_backend(snap):
    if value(snap, "counters", "backend.txn.commands_issued") == 0:
        fail("transaction backend issued no commands")
    mean_err = value(snap, "gauges", "backend.xval.mean_rel_err")
    bound = value(snap, "gauges", "backend.xval.bound")
    if not 0 < bound <= 1:
        fail(f"implausible backend xval bound {bound}")
    if mean_err >= bound:
        fail(
            "backend cross-validation mean relative error "
            f"{mean_err:.4f} >= committed bound {bound:.4f}"
        )


def check_transfer(snap):
    if value(snap, "counters", "transfer.bursts") == 0:
        fail("transfer engine formed no bursts")
    if value(snap, "counters", "transfer.staged_bursts") == 0:
        fail("transfer scheduler staged no bursts")
    touches = value(snap, "counters", "transfer.resident_hits") + value(
        snap, "counters", "transfer.resident_misses"
    )
    if touches == 0:
        fail("resident-LUT placement was never consulted")
    overlap = value(snap, "gauges", "transfer.overlap_frac")
    if not 0 <= overlap <= 1:
        fail(f"implausible transfer overlap fraction {overlap!r}")


def check_verify(snap):
    if value(snap, "counters", "verify.plans_verified") == 0:
        fail("verification enabled but no plans were verified")
    errors = value(snap, "counters", "verify.errors")
    if errors != 0:
        fail(f"verifier reported {errors} error(s) on lowered plans")


def check_lockorder(snap):
    if value(snap, "gauges", "analysis.lockorder.enabled") != 1:
        fail(
            "lock-order cleanliness required but the detector was "
            "not enabled for this run (PIMDL_DEADLOCK_CHECK)"
        )
    for name in (
        "analysis.lockorder.cycles",
        "analysis.lockorder.self_lock",
        "analysis.lockorder.wait_while_holding",
    ):
        violations = value(snap, "counters", name)
        if violations != 0:
            fail(
                f"lock-order analysis reported {violations} "
                f"violation(s) in {name!r} — see the run's stderr for "
                "the cycle report"
            )
    if value(snap, "counters", "analysis.lockorder.acquisitions") == 0:
        fail(
            "lock-order analysis enabled but tracked no acquisitions — "
            "detector wiring is broken"
        )


# Every family --require accepts, with its semantic checks (None: the
# family rule alone). `fault` is the fault-aware LUT executor's ladder
# (fault.lut.*, fault.injected.*); the serving fault ladder's counters
# are serving.live.* metrics.
CHECKS = {
    "analysis.lockorder": check_lockorder,
    "backend": check_backend,
    "chaos": check_chaos,
    "engine": check_engine,
    "fault": None,
    "serving.live": check_serving_live,
    "transfer": check_transfer,
    "tuner": None,
    "verify": check_verify,
}


def family_of(name):
    """The longest family prefixing @p name, or None."""
    owners = [f for f in CHECKS if name.startswith(f + ".")]
    return max(owners, key=len, default=None)


class Parser(argparse.ArgumentParser):
    def error(self, message):
        fail(f"{message}\n{self.format_usage().rstrip()}")


def main():
    parser = Parser(
        prog="check_metrics.py",
        allow_abbrev=False,
        description="Validate a pimdl metrics snapshot.",
    )
    parser.add_argument("snapshot")
    parser.add_argument(
        "--require",
        action="append",
        default=[],
        choices=CHECKS,
        metavar="FAMILY",
        help="fail unless this family's producer ran and its "
        "semantic checks hold (repeatable); one of: "
        + ", ".join(CHECKS),
    )
    args = parser.parse_args()

    try:
        with open(args.snapshot) as fh:
            snap = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot load snapshot: {exc}")

    schema = snap.get("schema") if isinstance(snap, dict) else None
    if schema != SCHEMA:
        fail(f"schema mismatch: {schema!r} != {SCHEMA!r}")

    for section in ("counters", "gauges", "histograms", "trace"):
        if not isinstance(snap.get(section), dict):
            fail(f"missing section {section!r}")

    for name, hist in snap["histograms"].items():
        for field in HISTOGRAM_FIELDS:
            if field not in hist:
                fail(f"histogram {name!r} missing field {field!r}")
        if not hist["p50"] <= hist["p95"] <= hist["p99"]:
            fail(
                f"histogram {name!r} percentiles not ordered: "
                f"p50={hist['p50']} p95={hist['p95']} p99={hist['p99']}"
            )

    families = {}
    for section in ("counters", "gauges", "histograms"):
        for name in snap[section]:
            families.setdefault(family_of(name), []).append(name)

    required = list(dict.fromkeys(args.require))
    for family in required:
        if family not in families:
            fail(f"required family {family!r} published no metrics")
        for name in families[family]:
            hist = snap["histograms"].get(name)
            if hist is not None and hist["count"] == 0:
                fail(f"histogram {name!r} recorded no samples")
        if CHECKS[family] is not None:
            CHECKS[family](snap)

    print(
        f"check_metrics: OK ({len(snap['counters'])} counters, "
        f"{len(snap['gauges'])} gauges, "
        f"{len(snap['histograms'])} histograms, "
        f"trace recorded={snap['trace'].get('recorded')}, "
        f"families: {', '.join(required) or 'none'})"
    )


if __name__ == "__main__":
    main()
