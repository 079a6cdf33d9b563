"""Parameter sweeps regenerating the paper's evaluation.

Figures 4 and 5 report operations per second — total and per PE — for 1,
2, 4 and 8 PEs on the section 5.1 platform.  :func:`sweep_gups` and
:func:`sweep_is` run those sweeps; the shape checks
(:func:`check_figure4_shape` / :func:`check_figure5_shape`) encode the
qualitative claims the reproduction must match, and are the rules of the
committed ``fig4`` / ``fig5`` records (:mod:`repro.bench.paper`):

* total throughput scales near-linearly from 1 to 4 PEs;
* per-PE throughput at 2 and 4 PEs meets or exceeds the 1-PE baseline
  (cache-capacity effect), with the peak at 2 PEs for GUPs;
* per-PE throughput drops at 8 PEs (shared-bus contention), by roughly
  25 % for IS.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..params import MachineConfig
from .gups import GupsParams, GupsResult, run_gups_backend
from .nas_is import IsParams, IsResult, generate_keys, run_is

__all__ = [
    "SweepPoint",
    "PE_COUNTS",
    "sweep_gups",
    "sweep_is",
    "check_figure4_shape",
    "check_figure5_shape",
    "oversubscription_gate",
    "bench_report",
    "main",
]

#: The PE counts of Figures 4 and 5.
PE_COUNTS = (1, 2, 4, 8)


@dataclass(frozen=True)
class SweepPoint:
    """One (n_pes, metric) point of a figure."""

    n_pes: int
    mops_total: float
    mops_per_pe: float
    verified: bool
    detail: object = None
    #: Workload seed the point was measured with (0 = canonical stream).
    seed: int = 0
    #: Host wall-clock seconds the point took to run.
    wall_seconds: float = 0.0


def sweep_gups(
    pe_counts: Sequence[int] = PE_COUNTS,
    params: GupsParams | None = None,
    base_config: MachineConfig | None = None,
    *,
    backend: str = "sim",
    seed: int | None = None,
    **session_opts,
) -> list[SweepPoint]:
    """Figure 4: GUPs at each PE count.

    ``seed`` (when given) overrides ``params.seed``, shifting every
    PE's slice of the HPCC update stream; it is recorded on each
    returned point.  The rates are whatever ``ctx.time_ns`` means on
    ``backend`` — host throughput on ``"mp"``, where the shape checks
    (about the simulated platform) do not apply.
    """
    params = params if params is not None else GupsParams()
    if seed is not None:
        params = replace(params, seed=seed)
    base = base_config if base_config is not None else MachineConfig()
    points = []
    for n in pe_counts:
        res: GupsResult = run_gups_backend(
            base.with_(n_pes=n), params, backend=backend, **session_opts)
        points.append(SweepPoint(
            n_pes=n,
            mops_total=res.mops_total,
            mops_per_pe=res.mops_per_pe,
            verified=res.passed,
            detail=res,
            seed=params.seed,
            wall_seconds=res.wall_seconds,
        ))
    return points


def sweep_is(
    pe_counts: Sequence[int] = PE_COUNTS,
    params: IsParams | None = None,
    base_config: MachineConfig | None = None,
    keys: np.ndarray | None = None,
    *,
    seed: int | None = None,
) -> list[SweepPoint]:
    """Figure 5: NAS IS at each PE count (one key sequence reused).

    ``seed`` (when given) perturbs the NPB key-generation LCG by
    ``2·seed`` (keeping the seed odd, as ``randlc`` requires); seed 0
    keeps NPB's canonical 314159265.
    """
    params = params if params is not None else IsParams()
    if seed is not None and seed != 0:
        params = replace(params, seed=params.seed + 2 * seed)
    base = base_config if base_config is not None else MachineConfig()
    if keys is None:
        keys = generate_keys(params)
    points = []
    for n in pe_counts:
        res: IsResult = run_is(base.with_(n_pes=n), params, keys)
        points.append(SweepPoint(
            n_pes=n,
            mops_total=res.mops_total,
            mops_per_pe=res.mops_per_pe,
            verified=res.partial_verified and res.full_verified,
            detail=res,
            seed=seed if seed is not None else 0,
        ))
    return points


def _by_pes(points: Sequence[SweepPoint]) -> dict[int, SweepPoint]:
    return {p.n_pes: p for p in points}


def check_figure4_shape(points: Sequence[SweepPoint]) -> list[str]:
    """Qualitative checks on a GUPs sweep; returns the violations."""
    p = _by_pes(points)
    bad: list[str] = []
    if not all(pt.verified for pt in points):
        bad.append("verification failed")
    if {1, 2, 4} <= p.keys():
        if not p[2].mops_total > 1.5 * p[1].mops_total:
            bad.append("total MOPS not ~linear 1->2 PEs")
        if not p[4].mops_total > 1.5 * p[2].mops_total:
            bad.append("total MOPS not ~linear 2->4 PEs")
        if not p[2].mops_per_pe >= p[1].mops_per_pe:
            bad.append("per-PE MOPS at 2 PEs below the 1-PE baseline")
        if not p[4].mops_per_pe >= p[1].mops_per_pe:
            bad.append("per-PE MOPS at 4 PEs below the 1-PE baseline")
        if not p[2].mops_per_pe >= p[4].mops_per_pe:
            bad.append("per-PE peak not at 2 PEs")
    if {4, 8} <= p.keys():
        if not p[8].mops_per_pe < p[4].mops_per_pe:
            bad.append("no per-PE drop at 8 PEs")
    return bad


def check_figure5_shape(points: Sequence[SweepPoint]) -> list[str]:
    """Qualitative checks on an IS sweep; returns the violations."""
    p = _by_pes(points)
    bad: list[str] = []
    if not all(pt.verified for pt in points):
        bad.append("verification failed")
    if {1, 2, 4} <= p.keys():
        if not p[2].mops_total > 1.4 * p[1].mops_total:
            bad.append("total MOPS not ~linear 1->2 PEs")
        if not p[4].mops_total > 1.4 * p[2].mops_total:
            bad.append("total MOPS not ~linear 2->4 PEs")
        # "The number of operations per PE also remains consistent."
        lo = 0.85 * p[1].mops_per_pe
        if p[2].mops_per_pe < lo or p[4].mops_per_pe < lo:
            bad.append("per-PE MOPS not consistent across 1-4 PEs")
    if {4, 8} <= p.keys():
        drop = 1.0 - p[8].mops_per_pe / p[4].mops_per_pe
        if drop < 0.10:
            bad.append(f"8-PE per-PE drop only {drop:.0%} (paper: ~25%)")
        if drop > 0.60:
            bad.append(f"8-PE per-PE drop {drop:.0%} is far beyond ~25%")
    return bad


def oversubscription_gate(pe_counts: Sequence[int],
                          oversubscribe: bool = False,
                          cpu_count: int | None = None) -> tuple[bool, str]:
    """Decide whether an mp wall-clock sweep over ``pe_counts`` is honest.

    More workers than host cores measure scheduler contention, not
    speedup, so the harness refuses unless ``oversubscribe``.  Returns
    ``(ok, message)``; the message explains a refusal and its remedy.
    """
    cores = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    widest = max(pe_counts) if pe_counts else 0
    if widest <= cores or oversubscribe:
        return True, ""
    return False, (
        f"refusing the mp sweep: the widest point needs {widest} "
        f"worker processes but this host has only {cores} core(s); "
        f"wall-clock 'speedup' would measure scheduler contention, not "
        f"the backend.  Re-run with --pes capped at {cores}, or pass "
        f"--oversubscribe to record the numbers anyway (they will be "
        f"flagged in the JSON report)."
    )


def bench_report(bench: str, backend: str,
                 points: Sequence[SweepPoint], *,
                 oversubscribed: bool | None = None) -> dict:
    """A JSON-serialisable record of one sweep, with host metadata.

    Wall-clock numbers mean something only next to their host, so the
    record carries the CPU count, platform and Python version, and (for
    mp sweeps) ``oversubscribed``: the widest point ran more workers than
    cores, so ``speedup_widest_vs_1`` is not parallel speedup.
    """
    import platform
    import sys

    p = _by_pes(points)
    widest = max(p) if p else 0
    speedup = (p[widest].mops_total / p[min(p)].mops_total
               if len(p) >= 2 else None)
    return {
        "bench": bench,
        "backend": backend,
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": sys.version.split()[0],
            **({} if oversubscribed is None
               else {"oversubscribed": oversubscribed}),
        },
        "points": [
            {
                "n_pes": pt.n_pes,
                "mops_total": pt.mops_total,
                "mops_per_pe": pt.mops_per_pe,
                "verified": pt.verified,
                "seed": pt.seed,
                "wall_seconds": pt.wall_seconds,
            }
            for pt in points
        ],
        "speedup_widest_vs_1": speedup,
        "widest_pes": widest,
    }


def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.bench.harness``: Figure 4's workload on the mp
    backend, in host time (``--out``: the ``BENCH_mp.json`` format).  The
    simulated figures are ``python -m repro.bench.sweeps fig4 fig5``."""
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="repro.bench.harness",
        description="GUPs on the multiprocessing backend (wall-clock).",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (0 = the canonical stream)")
    parser.add_argument("--pes", type=int, nargs="+", default=list(PE_COUNTS),
                        help="PE counts to sweep (default: 1 2 4 8)")
    parser.add_argument("--gups-updates", type=int, default=None,
                        help="GUPs updates per PE (default: 2048)")
    parser.add_argument("--oversubscribe", action="store_true",
                        help="allow more PEs than host cores (numbers are "
                             "flagged in the JSON)")
    parser.add_argument("--out", default=None,
                        help="write the sweep as JSON to this path")
    args = parser.parse_args(argv)

    ok, why = oversubscription_gate(args.pes, args.oversubscribe)
    if not ok:
        print(why)
        return 2
    gp = GupsParams()
    if args.gups_updates is not None:
        gp = replace(gp, updates_per_pe=args.gups_updates)
    points = sweep_gups(args.pes, gp, backend="mp", seed=args.seed)
    print(f"GUPs on mp backend (wall-clock), seed={args.seed}")
    print(f"  {'PEs':>4} {'MOPS total':>12} {'MOPS/PE':>10} "
          f"{'verified':>8} {'wall s':>8}")
    for pt in points:
        print(f"  {pt.n_pes:>4} {pt.mops_total:>12.3f} "
              f"{pt.mops_per_pe:>10.3f} {str(pt.verified):>8} "
              f"{pt.wall_seconds:>8.2f}")
    if args.out:
        report = bench_report(
            "gups", "mp", points,
            oversubscribed=max(args.pes) > (os.cpu_count() or 1))
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    return int(not all(pt.verified for pt in points))


if __name__ == "__main__":
    raise SystemExit(main())
