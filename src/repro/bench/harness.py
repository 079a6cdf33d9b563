"""Parameter sweeps regenerating the paper's evaluation.

Figures 4 and 5 report operations per second — total and per PE — for 1,
2, 4 and 8 PEs on the section 5.1 platform.  :func:`sweep_gups` and
:func:`sweep_is` run those sweeps; the shape checks
(:func:`check_figure4_shape` / :func:`check_figure5_shape`) encode the
qualitative claims the reproduction must match:

* total throughput scales near-linearly from 1 to 4 PEs;
* per-PE throughput at 2 and 4 PEs meets or exceeds the 1-PE baseline
  (cache-capacity effect), with the peak at 2 PEs for GUPs;
* per-PE throughput drops at 8 PEs (shared-bus contention), by roughly
  25 % for IS.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..params import MachineConfig
from .gups import GupsParams, GupsResult, run_gups, run_gups_backend
from .nas_is import IsParams, IsResult, generate_keys, run_is

__all__ = [
    "SweepPoint",
    "PE_COUNTS",
    "sweep_gups",
    "sweep_gups_backend",
    "sweep_is",
    "check_figure4_shape",
    "check_figure5_shape",
    "CollectiveProfile",
    "profile_collective",
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
    #: Host wall-clock seconds the point took to simulate.
    wall_seconds: float = 0.0
    #: Simulated nanoseconds produced per wall-clock second — the
    #: simulator-throughput figure perf regressions show up in.
    sim_ns_per_wall_s: float = 0.0


def sweep_gups(
    pe_counts: Sequence[int] = PE_COUNTS,
    params: GupsParams | None = None,
    base_config: MachineConfig | None = None,
    *,
    seed: int | None = None,
) -> list[SweepPoint]:
    """Figure 4: GUPs at each PE count.

    ``seed`` (when given) overrides ``params.seed``, shifting every
    PE's slice of the HPCC update stream; it is recorded on each
    returned point.
    """
    params = params if params is not None else GupsParams()
    if seed is not None:
        params = replace(params, seed=seed)
    base = base_config if base_config is not None else MachineConfig()
    points = []
    for n in pe_counts:
        res: GupsResult = run_gups(base.with_(n_pes=n), params)
        points.append(SweepPoint(
            n_pes=n,
            mops_total=res.mops_total,
            mops_per_pe=res.mops_per_pe,
            verified=res.passed,
            detail=res,
            seed=params.seed,
            wall_seconds=res.wall_seconds,
            sim_ns_per_wall_s=res.sim_ns_per_wall_s,
        ))
    return points


def sweep_gups_backend(
    pe_counts: Sequence[int] = PE_COUNTS,
    params: GupsParams | None = None,
    base_config: MachineConfig | None = None,
    *,
    backend: str = "mp",
    seed: int | None = None,
    **session_opts,
) -> list[SweepPoint]:
    """GUPs at each PE count on an execution backend (wall-clock).

    Unlike :func:`sweep_gups` the reported rates are whatever
    ``ctx.time_ns`` means on the chosen backend — host throughput on
    ``"mp"``.  Shape checks do not apply to wall-clock numbers (they
    depend on the host's core count), so callers record these points
    instead of asserting Figure 4 on them.
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
            sim_ns_per_wall_s=res.sim_ns_per_wall_s,
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
        wall0 = time.perf_counter()
        res: IsResult = run_is(base.with_(n_pes=n), params, keys)
        wall = time.perf_counter() - wall0
        sim_ns = res.sim_seconds * 1e9
        points.append(SweepPoint(
            n_pes=n,
            mops_total=res.mops_total,
            mops_per_pe=res.mops_per_pe,
            verified=res.partial_verified and res.full_verified,
            detail=res,
            seed=seed if seed is not None else 0,
            wall_seconds=wall,
            sim_ns_per_wall_s=(sim_ns / wall) if wall > 0 else 0.0,
        ))
    return points


@dataclass
class CollectiveProfile:
    """A traced run of one collective, ready for inspection or export."""

    name: str
    n_pes: int
    nelems: int
    dtype: str
    metrics: list  #: :class:`~repro.sim.metrics.CollectiveMetrics` entries
    elapsed_ns: float
    chrome: dict | None = None  #: Chrome-trace doc when ``chrome_path`` set

    @property
    def call(self):
        """The top-level (non-nested) call that was profiled."""
        for m in self.metrics:
            if not m.nested:
                return m
        raise LookupError(f"no top-level {self.name} call in the trace")


#: Collectives :func:`profile_collective` knows how to drive.
_PROFILABLE = ("broadcast", "reduce", "scatter", "gather", "allreduce",
               "scan", "allgather", "alltoall")


def _even_split(nelems: int, n_pes: int) -> tuple[list[int], list[int]]:
    """Per-PE counts/displacements that sum to ``nelems``."""
    base, rem = divmod(nelems, n_pes)
    msgs = [base + (1 if i < rem else 0) for i in range(n_pes)]
    disp = [0] * n_pes
    for i in range(1, n_pes):
        disp[i] = disp[i - 1] + msgs[i - 1]
    return msgs, disp


def profile_collective(
    name: str,
    *,
    n_pes: int = 8,
    nelems: int = 64,
    root: int = 0,
    op: str = "sum",
    dtype: str | np.dtype = "int64",
    algorithm: str | None = None,
    base_config: MachineConfig | None = None,
    chrome_path: object | None = None,
) -> CollectiveProfile:
    """Run one collective on a traced machine and return its metrics.

    The workhorse behind the observability layer's bench surface: builds
    an ``n_pes`` machine with tracing on, drives ``name`` once with a
    deterministic payload, and aggregates the recorded spans with
    :func:`repro.sim.metrics.collective_metrics`.  ``chrome_path``
    additionally dumps the Chrome-trace JSON (a path or file object).
    """
    from ..runtime.context import Machine, resolve_dtype

    if name not in _PROFILABLE:
        raise ValueError(
            f"unknown collective {name!r}; expected one of {_PROFILABLE}"
        )
    dt = resolve_dtype(dtype)
    base = base_config if base_config is not None else MachineConfig()
    machine = Machine(base.with_(n_pes=n_pes), trace=True)
    eb = dt.itemsize
    nbytes = max(nelems * eb, eb, 16)

    def body(ctx) -> None:
        ctx.init()
        dest = ctx.malloc(nbytes)
        src = ctx.malloc(nbytes)
        ctx.view(src, dt, nelems, 1)[:] = (
            np.arange(nelems, dtype=np.int64) % 7 + ctx.my_pe()
        ) if nelems else ()
        kw = {"algorithm": algorithm} if algorithm else {}
        if name == "broadcast":
            ctx.broadcast(dest, src, nelems, 1, root, dt, **kw)
        elif name == "reduce":
            ctx.reduce(dest, src, nelems, 1, root, op, dt, **kw)
        elif name == "allreduce":
            ctx.allreduce(dest, src, nelems, 1, op, dt, **kw)
        elif name == "scan":
            ctx.scan(dest, src, nelems, 1, op, dt)
        elif name == "alltoall":
            blk = max(nelems // ctx.num_pes(), 1) if nelems else 0
            big = ctx.malloc(max(blk * ctx.num_pes() * eb, 16))
            ctx.alltoall(big, src, blk, dt)
        else:  # scatter / gather / allgather
            msgs, disp = _even_split(nelems, ctx.num_pes())
            if name == "scatter":
                ctx.scatter(dest, src, msgs, disp, nelems, root, dt)
            elif name == "gather":
                ctx.gather(dest, src, msgs, disp, nelems, root, dt)
            else:
                ctx.allgather(dest, src, msgs, disp, nelems, dt)
        ctx.close()

    machine.run(body)
    chrome = None
    if chrome_path is not None:
        chrome = machine.write_chrome_trace(chrome_path)
    return CollectiveProfile(
        name=name,
        n_pes=n_pes,
        nelems=nelems,
        dtype=str(dt),
        metrics=machine.collective_metrics(),
        elapsed_ns=machine.elapsed_ns,
        chrome=chrome,
    )


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


def _print_points(title: str, points: Sequence[SweepPoint],
                  violations: Sequence[str]) -> None:
    print(title)
    print(f"  {'PEs':>4} {'MOPS total':>12} {'MOPS/PE':>10} "
          f"{'verified':>8} {'seed':>6} {'wall s':>8} {'sim ns/s':>10}")
    for pt in points:
        print(f"  {pt.n_pes:>4} {pt.mops_total:>12.3f} "
              f"{pt.mops_per_pe:>10.3f} {str(pt.verified):>8} {pt.seed:>6} "
              f"{pt.wall_seconds:>8.2f} {pt.sim_ns_per_wall_s:>10.3g}")
    if violations:
        for v in violations:
            print(f"  shape violation: {v}")
    else:
        print("  shape: OK")


def oversubscription_gate(pe_counts: Sequence[int],
                          oversubscribe: bool = False,
                          cpu_count: int | None = None) -> tuple[bool, str]:
    """Decide whether an mp wall-clock sweep over ``pe_counts`` is honest.

    A worker-per-PE backend oversubscribed onto fewer host cores
    measures scheduler contention, not parallel speedup, so the harness
    refuses to record such numbers unless the caller explicitly opts in
    with ``--oversubscribe``.  Returns ``(ok, message)``; when ``ok`` is
    False the message explains the refusal and the remedy.
    """
    cores = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    widest = max(pe_counts) if pe_counts else 0
    if widest <= cores or oversubscribe:
        return True, ""
    return False, (
        f"refusing --backend mp: the widest sweep point needs {widest} "
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

    Wall-clock numbers are only interpretable next to the host they were
    measured on — a 1-core container cannot show parallel speedup no
    matter how good the backend is — so the record carries the CPU
    count, platform and Python version alongside the measurements, and
    (for mp sweeps) whether the host was oversubscribed: True means the
    widest point ran more workers than cores and the scaling headline
    must not be read as parallel speedup.  ``speedup_8v1`` (or the
    widest available ratio) is the scaling headline.
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
    """``python -m repro.bench.harness`` — run the figure sweeps.

    ``--seed`` varies the benchmark workloads deterministically (and is
    recorded on every reported point); identical invocations produce
    identical results.  ``--backend mp`` reruns GUPs on the true-parallel
    multiprocessing backend (wall-clock rates, no figure-shape checks);
    ``--out`` writes the sweep as JSON (the ``BENCH_mp.json`` format).
    """
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="repro.bench.harness",
        description="Regenerate the paper's Figure 4/5 sweeps.",
    )
    parser.add_argument("--bench", choices=("gups", "is", "both"),
                        default="both", help="which sweep(s) to run")
    parser.add_argument("--backend", choices=("sim", "mp"), default="sim",
                        help="execution backend (mp = wall-clock GUPs)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (0 = the canonical streams)")
    parser.add_argument("--pes", type=int, nargs="+", default=list(PE_COUNTS),
                        help="PE counts to sweep (default: 1 2 4 8)")
    parser.add_argument("--gups-updates", type=int, default=None,
                        help="GUPs updates per PE (default: 2048)")
    parser.add_argument("--is-class", default=None,
                        help="NAS IS problem class (e.g. B-scaled)")
    parser.add_argument("--oversubscribe", action="store_true",
                        help="allow --backend mp with more PEs than host "
                             "cores (numbers are flagged in the JSON)")
    parser.add_argument("--out", default=None,
                        help="write the sweep as JSON to this path")
    args = parser.parse_args(argv)

    status = 0
    report = None
    if args.backend == "mp":
        # Wall-clock sweep: figure-shape checks are about the *simulated*
        # platform and do not apply to host throughput.
        ok, why = oversubscription_gate(args.pes, args.oversubscribe)
        if not ok:
            print(why)
            return 2
        if args.bench in ("is", "both"):
            print("note: --backend mp runs the GUPs sweep only")
        gp = GupsParams()
        if args.gups_updates is not None:
            gp = replace(gp, updates_per_pe=args.gups_updates)
        points = sweep_gups_backend(args.pes, gp, backend="mp",
                                    seed=args.seed)
        _print_points(f"GUPs on mp backend (wall-clock), seed={args.seed}",
                      points, [])
        status |= not all(pt.verified for pt in points)
        report = bench_report(
            "gups", "mp", points,
            oversubscribed=max(args.pes) > (os.cpu_count() or 1))
    else:
        if args.bench in ("gups", "both"):
            gp = GupsParams()
            if args.gups_updates is not None:
                gp = replace(gp, updates_per_pe=args.gups_updates)
            points = sweep_gups(args.pes, gp, seed=args.seed)
            bad = check_figure4_shape(points)
            _print_points(f"GUPs (Figure 4), seed={args.seed}", points, bad)
            status |= bool(bad)
            report = bench_report("gups", "sim", points)
        if args.bench in ("is", "both"):
            ip = IsParams()
            if args.is_class is not None:
                ip = replace(ip, problem_class=args.is_class)
            points = sweep_is(args.pes, ip, seed=args.seed)
            bad = check_figure5_shape(points)
            _print_points(f"NAS IS (Figure 5), seed={args.seed}", points, bad)
            status |= bool(bad)
    if args.out and report is not None:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
