"""CI gate: fail when a bench regresses >25% against the committed baseline.

Usage::

    python benchmarks/check_perf_regression.py [--baseline BENCH_perf.json]
                                               [--min-ratio 0.75] [--quick]

Comparing absolute rates across machines -- or across minutes on one
shared host -- is meaningless, so the gate normalizes by interpreter
speed first.  Every bench carries ``ref_rate``, its rate on a reference
host, from the host speed sampled while that bench ran
(``perfkit._best_rate``).  A bench fails when::

    fresh_ref_rate < min_ratio * committed_ref_rate

A baseline written before benches carried ``ref_rate`` is still read:
its rates are scaled by the one run-wide spin-loop calibration, and a
bench fails when
``fresh_rate < min_ratio * committed_rate * (fresh_cal / committed_cal)``.

``--min-ratio`` defaults to 0.75 (the >25% regression threshold) and can
be overridden via the ``BENCH_MIN_RATIO`` environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import perfkit
from run_perf import QUICK_SIZES


def check(baseline: dict, fresh_benches: dict, fresh_cal: float, min_ratio: float):
    committed_cal = baseline["calibration"]["rate"]
    scale = fresh_cal / committed_cal
    failures = []
    print(f"calibration: committed {committed_cal:,.0f}/s, fresh {fresh_cal:,.0f}/s "
          f"-> machine scale {scale:.3f}")
    for name, committed in sorted(baseline["benches"].items()):
        fresh = fresh_benches.get(name)
        if fresh is None:
            failures.append(f"{name}: missing from fresh run")
            continue
        if "ref_rate" in committed and "ref_rate" in fresh:
            key, expected = "ref_rate", committed["ref_rate"]
        else:
            key, expected = "rate", committed["rate"] * scale
        rate = fresh[key]
        floor = min_ratio * expected
        ratio = rate / expected
        verdict = "ok" if rate >= floor else "REGRESSION"
        print(f"{name:>22}: {rate:>12,.0f} {fresh['unit']} ({key}; "
              f"normalized {ratio:.2f}x of baseline, floor {floor:,.0f}) {verdict}")
        if rate < floor:
            failures.append(
                f"{name}: {key} {rate:,.0f} < floor {floor:,.0f} "
                f"({ratio:.2f}x of calibrated baseline)"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default="BENCH_perf.json")
    parser.add_argument(
        "--min-ratio",
        type=float,
        default=float(os.environ.get("BENCH_MIN_RATIO", "0.75")),
    )
    parser.add_argument(
        "--quick", action="store_true", help="~10x smaller workloads (noisier)"
    )
    parser.add_argument(
        "--fresh",
        default=None,
        help="path to a run_perf.py output to check instead of re-measuring",
    )
    args = parser.parse_args(argv)

    with open(args.baseline) as fh:
        baseline = json.load(fh)
    meta = baseline.get("meta")
    if meta is not None and meta.get("seed") != perfkit.BENCH_SEED:
        print(
            f"warning: baseline was measured with seed {meta.get('seed')!r}, "
            f"this tree benches with seed {perfkit.BENCH_SEED} -- workloads differ"
        )
    if args.fresh:
        with open(args.fresh) as fh:
            fresh = json.load(fh)
        fresh_benches = fresh["benches"]
        fresh_cal = fresh["calibration"]["rate"]
    elif args.quick:
        # Quick workloads have different sizes; rates stay comparable
        # because every bench reports a per-operation rate.
        fresh_benches = perfkit.run_all(**QUICK_SIZES)
        fresh_cal = perfkit.calibrate()["rate"]
    else:
        fresh_benches = perfkit.run_all()
        fresh_cal = perfkit.calibrate()["rate"]

    failures = check(baseline, fresh_benches, fresh_cal, args.min_ratio)
    if failures:
        print("\nperformance regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nall benches within {(1 - args.min_ratio) * 100:.0f}% of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
