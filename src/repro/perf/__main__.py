"""``python -m repro.perf`` — run the simulator wall-clock benchmarks.

Default mode measures full-size workloads and writes
``BENCH_simwall.json`` (the committed baseline).  ``--check BASELINE``
re-runs the same workload sizes as the baseline and fails when a
benchmark's measured speedup falls below its floor in
:data:`repro.perf.CHECK_FLOORS`.  Both arms of a speedup run on the same
host in the same process, so the check does not depend on how fast the
host is; absolute seconds are printed and never gated.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .bench import BENCH_FILENAME, CHECK_FLOORS, run_all


def _print_table(doc: dict) -> None:
    print(f"{'benchmark':<20} {'before s':>10} {'after s':>10} {'speedup':>9}")
    for name, row in doc["benchmarks"].items():
        print(f"{name:<20} {row['before_s']:>10.4f} {row['after_s']:>10.4f} "
              f"{row['speedup']:>8.2f}x")


def _check(doc: dict, baseline: dict) -> list[str]:
    """Compare a fresh run against the committed baseline."""
    problems: list[str] = []
    for name, row in doc["benchmarks"].items():
        if name not in baseline.get("benchmarks", {}):
            problems.append(f"{name}: missing from baseline")
            continue
        floor = CHECK_FLOORS.get(name)
        if floor is not None and row["speedup"] < floor:
            problems.append(
                f"{name}: speedup {row['speedup']:.2f}x below floor {floor}x"
            )
    return problems


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.perf",
        description="Wall-clock perf benchmarks of the simulator itself.",
    )
    parser.add_argument("--repeats", type=int, default=None,
                        help="repeats per arm (default: 5, or 3 with --check)")
    parser.add_argument("--quick", action="store_true",
                        help="smaller workloads (CI-sized)")
    parser.add_argument("--output", type=Path, default=None,
                        help=f"write results here (default: ./{BENCH_FILENAME}; "
                             "'-' prints JSON only)")
    parser.add_argument("--check", type=Path, default=None, metavar="BASELINE",
                        help="compare against a committed baseline instead of "
                             "writing one (re-runs the baseline's workload "
                             "sizes)")
    args = parser.parse_args(argv)

    if args.check is not None:
        baseline = json.loads(args.check.read_text())
        repeats = args.repeats if args.repeats is not None else 3
        doc = run_all(repeats=repeats, quick=baseline.get("quick", False))
        _print_table(doc)
        problems = _check(doc, baseline)
        if problems:
            for p in problems:
                print(f"PERF REGRESSION: {p}", file=sys.stderr)
            return 1
        print("perf check OK")
        return 0

    repeats = args.repeats if args.repeats is not None else 5
    doc = run_all(repeats=repeats, quick=args.quick)
    _print_table(doc)
    if args.output == Path("-"):
        print(json.dumps(doc, indent=2))
        return 0
    out = args.output if args.output is not None else Path(BENCH_FILENAME)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
