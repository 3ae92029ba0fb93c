#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

    python3 perfbench/run.py --workload offline --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The driver is configured and built with
CMake under $CARGO_TARGET_DIR (default .bench_build), then run once per
workload. Build output goes to standard error, so the last line of
standard output is the driver's JSON verdict. With --trace 1 the span
file lands in <build dir>/traces/.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("offline", "serve", "price")
# A run measures --seconds plus its set-up; anything far past that is hung.
DRIVER_TIMEOUT_S = 170


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def stamp(bdir, targets):
    return bdir / (".built-" + "-".join(targets))


def up_to_date(bdir, targets):
    """True when the targets were built after every source last changed,
    so a run can skip the build tool's own check (a few seconds)."""
    mark = stamp(bdir, targets)
    if not mark.exists() or not all((bdir / t).exists() for t in targets):
        return False
    built = mark.stat().st_mtime
    for tree in (ROOT / "src", HERE):
        for path in tree.rglob("*"):
            if path.is_file() and path.stat().st_mtime >= built:
                return False
    return True


def build(*targets):
    bdir = build_dir()
    if up_to_date(bdir, targets):
        return bdir
    if not (bdir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(bdir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(bdir), "-j", jobs, "--target", *targets],
        stdout=sys.stderr, check=True)
    stamp(bdir, targets).touch()
    return bdir


def run_driver(bdir, workload, args, capture):
    cmd = [str(bdir / "perfbench_driver"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        traces = bdir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{workload}-seed{args.seed}.json")]
    return subprocess.run(cmd, timeout=DRIVER_TIMEOUT_S, text=True,
                          stdout=subprocess.PIPE if capture else None)


def run_all(bdir, args):
    """Every workload in turn, then one summary table."""
    verdicts = {}
    for workload in WORKLOADS:
        proc = run_driver(bdir, workload, args, capture=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        verdicts[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("\nsummary (value unit per workload)")
    names = list(verdicts[WORKLOADS[0]]["metrics"])
    print("  %-42s" % "metric" + "".join("%22s" % w for w in WORKLOADS))
    for name in names:
        cells = []
        for w in WORKLOADS:
            m = verdicts[w]["metrics"][name]
            cells.append("%22s" % ("%.6g %s" % (m["value"], m["unit"])))
        print("  %-42s" % name + "".join(cells))
    for w in WORKLOADS:
        v = verdicts[w]
        share = 100.0 * v["failed"] / max(1, v["attempted"])
        print(f"  {w}: correct={v['correct']} attempted={v['attempted']}"
              f" failed={v['failed']} ({share:.3f}%)")
    summary = {
        "correct": all(v["correct"] for v in verdicts.values()),
        "attempted": sum(v["attempted"] for v in verdicts.values()),
        "failed": sum(v["failed"] for v in verdicts.values()),
        "metrics": {f"{w}.{k}": m for w, v in verdicts.items()
                    for k, m in v["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload or --self-test is required")

    try:
        if args.self_test:
            bdir = build("perfbench_tests")
            return subprocess.run([str(bdir / "perfbench_tests")]).returncode
        bdir = build("perfbench_driver")
        if args.workload == "all":
            return run_all(bdir, args)
        return run_driver(bdir, args.workload, args, capture=False).returncode
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
