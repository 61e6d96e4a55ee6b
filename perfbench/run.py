#!/usr/bin/env python3
"""Serving-headline benchmark: one workload, one measured run.

Run from the repository root:

    python3 perfbench/run.py --workload flash_admit [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` prints the end-to-end metrics (host time with tracing
off, plus simulated figures); ``--trace 1`` prints the per-layer
ledger from a traced run.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``, where
``attempted`` counts the requests offered and ``failed`` those that
ended in an error.  Exits 1 when any correctness check fails and 2 when
there is no program to measure.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("flash_admit", "flash_overload", "chaos_repair")
#: The ``rack_traffic`` preset's own seed.
HEADLINE_SEED = 990951


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=HEADLINE_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def emit(outcome) -> int:
    """Print the run's findings, the JSON result last; returns the exit code."""
    for note in outcome.notes:
        print(f"# {note}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name:28s} {value:>16.6g} {unit}")
    for check in outcome.failed_checks:
        print(f"CHECK FAILED: {check}")
    correct = not outcome.failed_checks
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import measure

    return emit(measure.run(args.workload, args.seed, args.seconds, bool(args.trace)))


if __name__ == "__main__":
    sys.exit(main())
