"""Open-loop traffic generator for the serving layer (BENCH_serve).

Drives a :class:`~repro.serve.pool.ServePool` with seeded Poisson
arrivals over a mixed collective/payload profile and reports the
serving metrics the ROADMAP north star turns on: p50/p95/p99 job
latency, goodput (completed jobs per second of wall time), admission
outcomes, and per-tenant PE-seconds.

The generator is **open-loop**: arrival times are drawn up front from
the seed and jobs are submitted when the wall clock passes them,
whether or not earlier jobs have finished — so an overloaded pool shows
up as queue-wait growth and backpressure rejections, exactly like a
service behind real traffic, rather than the generator politely slowing
down.  Everything random — inter-arrival gaps, profile choice, tenant
assignment, fault placement — derives from ``seed`` via the PR 2 fault
machinery's keyed splitmix64 draws, so a sweep is reproducible
arrival-for-arrival.

``python -m repro.bench.serve_sweep --out BENCH_serve.json`` writes the
committed report; ``--check BENCH_serve.json`` is the CI perf-smoke
mode — it validates the committed report's invariants and runs a short
fresh sweep to prove the serving path still completes jobs on this
host.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Sequence

from ..faults.plan import keyed_salt, keyed_u01
from ..errors import QueueFullError
from ..serve import JobSpec, ServePool

__all__ = [
    "TrafficProfile",
    "DEFAULT_MIX",
    "arrival_times",
    "build_jobs",
    "run_serve_sweep",
    "check_report",
    "main",
]

#: Draw-key rule indices (the ``rule_index`` of ``keyed_u01``), so the
#: independent random streams never collide.
_R_ARRIVAL, _R_PROFILE, _R_TENANT, _R_FAULT, _R_SEED = range(5)


@dataclass(frozen=True)
class TrafficProfile:
    """One job template of the traffic mix."""

    name: str
    collective: str
    n_pes: int
    nelems: int
    dtype: str = "long"
    weight: float = 1.0


#: The default mixed collective/payload profile: mostly small latency
#: -sensitive allreduces/broadcasts, some medium fan-outs, occasional
#: wide bandwidth-heavy jobs — the shape of collective traffic a
#: parameter-server-style service sees.
DEFAULT_MIX = (
    TrafficProfile("small-allreduce", "allreduce", 2, 64, weight=4.0),
    TrafficProfile("small-broadcast", "broadcast", 2, 256, weight=3.0),
    TrafficProfile("medium-scan", "scan", 2, 1024, weight=1.5),
    TrafficProfile("medium-allgather", "allgather", 2, 512, weight=1.5),
    TrafficProfile("wide-allreduce", "allreduce", 4, 2048, weight=1.0),
    TrafficProfile("wide-alltoall", "alltoall", 4, 256, weight=0.5),
    TrafficProfile("barrier-ping", "barrier", 2, 8, weight=1.0),
)


def arrival_times(seed: int, duration_s: float,
                  rate_per_s: float) -> list[float]:
    """Seeded Poisson arrival offsets (seconds) within ``duration_s``."""
    import math

    if rate_per_s <= 0:
        raise ValueError(f"arrival rate must be > 0, got {rate_per_s}")
    out: list[float] = []
    t = 0.0
    i = 0
    while True:
        u = keyed_u01(seed, _R_ARRIVAL, i)
        t += -math.log(1.0 - u) / rate_per_s
        if t >= duration_s:
            return out
        out.append(t)
        i += 1


def _pick_profile(seed: int, i: int,
                  mix: Sequence[TrafficProfile]) -> TrafficProfile:
    total = sum(p.weight for p in mix)
    x = keyed_u01(seed, _R_PROFILE, i) * total
    for p in mix:
        x -= p.weight
        if x < 0:
            return p
    return mix[-1]


def build_jobs(seed: int, duration_s: float, rate_per_s: float, *,
               tenants: int = 8, fault_rate: float = 0.0,
               mix: Sequence[TrafficProfile] = DEFAULT_MIX,
               pool_pes: int = 4) -> list[tuple[float, JobSpec]]:
    """The full seeded traffic: ``(arrival_offset_s, spec)`` per job.

    Faults are placed by an independent keyed draw: a faulted job gets
    mode ``"raise"`` or ``"exit"`` (salt-chosen) on a salt-chosen
    member.  The same seed with ``fault_rate=0`` yields the *same* jobs
    minus the faults — the differential the crash-isolation acceptance
    test runs.
    """
    jobs = []
    for i, t in enumerate(arrival_times(seed, duration_s, rate_per_s)):
        prof = _pick_profile(seed, i, mix)
        tenant = f"tenant{int(keyed_u01(seed, _R_TENANT, i) * tenants)}"
        n_pes = min(prof.n_pes, pool_pes)
        fault = None
        fault_rank = 0
        if fault_rate > 0 and keyed_u01(seed, _R_FAULT, i) < fault_rate:
            salt = keyed_salt(seed, _R_FAULT, i)
            fault = "exit" if salt & 1 else "raise"
            fault_rank = (salt >> 1) % n_pes
        jobs.append((t, JobSpec(
            tenant=tenant, collective=prof.collective, n_pes=n_pes,
            nelems=prof.nelems, dtype=prof.dtype,
            seed=keyed_salt(seed, _R_SEED, i) & 0xFFFF,
            fault=fault, fault_rank=fault_rank,
        )))
    return jobs


def run_serve_sweep(*, n_pes: int = 4, backend: str = "auto",
                    duration_s: float = 5.0, rate_per_s: float = 25.0,
                    tenants: int = 8, seed: int = 0,
                    fault_rate: float = 0.0,
                    max_queue_depth: int = 64, max_wait_s: float = 30.0,
                    timeout: float = 60.0,
                    mix: Sequence[TrafficProfile] = DEFAULT_MIX) -> dict:
    """Run one open-loop sweep; returns the report dict."""
    jobs = build_jobs(seed, duration_s, rate_per_s, tenants=tenants,
                      fault_rate=fault_rate, mix=mix, pool_pes=n_pes)
    rejected_backpressure = 0
    wall0 = time.monotonic()
    with ServePool(n_pes=n_pes, backend=backend, timeout=timeout,
                   max_queue_depth=max_queue_depth,
                   max_wait_s=max_wait_s) as pool:
        next_job = 0
        while next_job < len(jobs):
            now = time.monotonic() - wall0
            while next_job < len(jobs) and jobs[next_job][0] <= now:
                _, spec = jobs[next_job]
                next_job += 1
                try:
                    pool.submit(spec)
                except QueueFullError:
                    rejected_backpressure += 1
            if next_job < len(jobs):
                pool.pump(min(0.01, max(0.0,
                                        jobs[next_job][0] - now)))
        results = pool.drain(timeout_s=max(60.0, timeout * 2))
        wall = time.monotonic() - wall0
        snap = pool.snapshot()
        backend_used = pool.backend_name

    completed = [r for r in results if r.ok]
    failed = [r for r in results if not r.ok and not r.rejected]
    timed_out = [r for r in results if r.rejected]
    faulted = sum(1 for _, s in jobs if s.fault is not None)
    lat = snap["totals"]["latency_s"]
    return {
        "bench": "serve_sweep",
        "backend": backend_used,
        "host": _host_metadata(),
        "traffic": {
            "seed": seed,
            "duration_s": duration_s,
            "arrival_rate_per_s": rate_per_s,
            "tenants": tenants,
            "fault_rate": fault_rate,
            "offered_jobs": len(jobs),
            "faulted_jobs": faulted,
            "mix": [{"name": p.name, "collective": p.collective,
                     "n_pes": p.n_pes, "nelems": p.nelems,
                     "dtype": p.dtype, "weight": p.weight}
                    for p in mix],
        },
        "pool": snap["pool"],
        "results": {
            "wall_seconds": round(wall, 6),
            "completed": len(completed),
            "failed": len(failed),
            "rejected_backpressure": rejected_backpressure,
            "rejected_admission_timeout": len(timed_out),
            "goodput_jobs_per_s": round(len(completed) / wall, 3)
            if wall > 0 else 0.0,
            "latency_s": lat,
            "pe_seconds_total": snap["totals"]["pe_seconds"],
        },
        "tenants": snap["tenants"],
    }


def _host_metadata() -> dict:
    import os
    import platform
    import sys

    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
    }


def check_report(path: str, *, smoke: bool = True) -> list[str]:
    """CI perf-smoke: validate a committed BENCH_serve report.

    Checks the committed file's invariants (the acceptance criteria the
    report exists to witness), then — unless ``smoke=False`` — runs a
    short fresh sweep on this host to prove the serving path still
    completes jobs.  Returns the violations (empty = pass).
    """
    bad: list[str] = []
    with open(path) as fh:
        rep = json.load(fh)
    res = rep.get("results", {})
    lat = res.get("latency_s", {})
    if rep.get("bench") != "serve_sweep":
        bad.append(f"not a serve_sweep report: {rep.get('bench')!r}")
    for q in ("p50", "p95", "p99"):
        if not isinstance(lat.get(q), (int, float)):
            bad.append(f"latency percentile {q} missing")
    if not bad and not lat["p50"] <= lat["p95"] <= lat["p99"]:
        bad.append("latency percentiles not monotonic")
    if res.get("completed", 0) < 200:
        bad.append(f"committed run completed only "
                   f"{res.get('completed')} jobs (acceptance: >= 200)")
    tenants = rep.get("tenants", {})
    if len(tenants) < 8:
        bad.append(f"committed run used only {len(tenants)} tenants "
                   "(acceptance: >= 8)")
    if not all(t.get("pe_seconds", 0) > 0 for t in tenants.values()):
        bad.append("some tenant has no PE-seconds accounted")
    fault_rate = rep.get("traffic", {}).get("fault_rate", 0)
    if fault_rate and res.get("failed", 0) == 0:
        bad.append("faults were injected but no job failed — "
                   "crash accounting suspect")
    if smoke:
        fresh = run_serve_sweep(duration_s=1.0, rate_per_s=10.0,
                                seed=7, backend="auto")
        if fresh["results"]["completed"] < 1:
            bad.append("fresh smoke sweep completed no jobs")
        if fresh["results"]["failed"]:
            bad.append(f"fresh fault-free smoke sweep had "
                       f"{fresh['results']['failed']} failures")
    return bad


def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.bench.serve_sweep`` — serving traffic bench."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.bench.serve_sweep",
        description="Open-loop Poisson traffic against a ServePool.",
    )
    parser.add_argument("--pes", type=int, default=4,
                        help="pool width (default 4)")
    parser.add_argument("--backend",
                        choices=("auto", "mp", "sim", "vec"),
                        default="auto", help="serving backend")
    parser.add_argument("--seed", type=int, default=0,
                        help="traffic seed (arrivals, mix, faults)")
    parser.add_argument("--tenants", type=int, default=8,
                        help="number of tenants (default 8)")
    parser.add_argument("--fault-rate", type=float, default=0.0,
                        help="fraction of jobs that get a seeded crash")
    parser.add_argument("--duration", type=float, default=5.0,
                        help="traffic duration in seconds (default 5)")
    parser.add_argument("--arrival-rate", type=float, default=25.0,
                        help="mean Poisson job arrivals per second "
                             "(default 25)")
    parser.add_argument("--out", default=None,
                        help="write the report JSON to this path")
    parser.add_argument("--check", default=None, metavar="REPORT",
                        help="CI perf-smoke: validate a committed "
                             "BENCH_serve.json instead of sweeping")
    args = parser.parse_args(argv)

    if args.check:
        bad = check_report(args.check)
        for v in bad:
            print(f"serve perf-smoke violation: {v}")
        if not bad:
            print(f"{args.check}: OK")
        return 1 if bad else 0

    report = run_serve_sweep(
        n_pes=args.pes, backend=args.backend, duration_s=args.duration,
        rate_per_s=args.arrival_rate, tenants=args.tenants, seed=args.seed,
        fault_rate=args.fault_rate,
    )
    res = report["results"]
    print(f"serve_sweep: backend={report['backend']} "
          f"offered={report['traffic']['offered_jobs']} "
          f"completed={res['completed']} failed={res['failed']} "
          f"rejected={res['rejected_backpressure']}"
          f"+{res['rejected_admission_timeout']}")
    print(f"  goodput {res['goodput_jobs_per_s']:.1f} jobs/s; latency "
          f"p50 {res['latency_s']['p50'] * 1e3:.1f} ms, "
          f"p95 {res['latency_s']['p95'] * 1e3:.1f} ms, "
          f"p99 {res['latency_s']['p99'] * 1e3:.1f} ms")
    for name, acct in report["tenants"].items():
        print(f"  {name}: {acct['completed']} ok, {acct['failed']} "
              f"failed, {acct['pe_seconds']:.3f} PE-s")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
