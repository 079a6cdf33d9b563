"""Lint every builtin schedule: ``python -m repro.collectives.schedule``.

Compiles every ``(collective, algorithm)`` pair in the registry across
1–16 PEs (degenerate, uniform and ragged call shapes) and runs the
static linter over each schedule.  Exits non-zero if any schedule has a
lint issue — CI runs this as the ``schedule-lint`` job.  The summary
line also reports the run's wall seconds and peak resident set size.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time

from .lint import lint_fused_schedule, lint_schedule
from .registry import builtin_schedules


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.collectives.schedule",
        description="statically lint every builtin collective schedule",
    )
    parser.add_argument("--max-pes", type=int, default=16,
                        help="largest PE count to compile (default 16)")
    parser.add_argument("--nelems", type=int, default=12,
                        help="elements per PE for non-degenerate shapes")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print every schedule checked, not just totals")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    checked = 0
    failures = 0
    for label, sched in builtin_schedules(
            pe_counts=tuple(range(1, args.max_pes + 1)), nelems=args.nelems):
        fused = sched.collective == "superstep" and \
            sched.algorithm == "fused"
        issues = lint_fused_schedule(sched) if fused else \
            lint_schedule(sched)
        checked += 1
        if issues:
            failures += 1
            print(f"FAIL {label}")
            for issue in issues:
                print(f"  {issue}")
        elif args.verbose:
            print(f"ok   {label}")
    status = "FAILED" if failures else "clean"
    # ru_maxrss is in KiB on Linux.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"schedule-lint: {checked} schedules checked, "
          f"{failures} with issues ({status}) in "
          f"{time.perf_counter() - start:.1f} s, peak RSS {peak_mb:.0f} MiB")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
