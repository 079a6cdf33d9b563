"""The four simulator micro-benchmarks behind ``BENCH_simwall.json``.

Each benchmark is a pure function ``bench_*(repeats, quick) ->
BenchResult`` timing one simulator hot path with the fast paths off
("before", the reference implementations kept for the equivalence
oracle) and on ("after").  Workloads are deterministic — both arms
simulate the exact same events, which the equivalence suite
(``tests/machine/test_costing_equivalence.py``,
``tests/sim/test_scheduler_equivalence.py``) separately proves produce
bit-identical results.

* ``engine_switch`` — raw context-switch rate of the cooperative
  scheduler: PEs that only ``advance`` + ``checkpoint``, forcing a
  switch on every yield.
* ``bulk_costing`` — ``MemoryHierarchy.access_range`` sweeps below the
  streaming cutoff: the per-line loop against the batched rounds of
  ``Cache.access_run``.
* ``collectives_micro`` — the end-to-end ``bench_collectives_micro``
  slice: real collectives on an 8-PE machine (engine + transfer +
  memory costing together).
* ``gups_slice`` — a short verified GUPs run, the scalar-access /
  random-index workload the batch path cannot help (both arms cost a
  single line the same way; the ratio is the engine's).
"""

from __future__ import annotations

import contextlib
import gc
import os
import platform
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SCHEMA",
    "BENCH_FILENAME",
    "CHECK_FLOORS",
    "BenchResult",
    "bench_engine_switch",
    "bench_bulk_costing",
    "bench_collectives_micro",
    "bench_gups_slice",
    "run_all",
]

SCHEMA = "repro-perf-simwall/1"
BENCH_FILENAME = "BENCH_simwall.json"

#: Minimum speedups ``--check`` enforces (deliberately far below the
#: recorded medians so runner noise cannot flake CI; ``None`` = reported
#: only).  ``bulk_costing`` measured 48-55x on the reference host once
#: the batch path became set-parallel numpy rounds; the floor is a fifth
#: of that.  ``collectives_micro`` measured 1.7-1.8x with whole-machine
#: collectives replayed from one thread (1.5-1.6x before, same host and
#: day): it builds a fresh machine for every collective, so set-up hides
#: most of what the replay saves.  Half the ratio would be under 1.0,
#: which gates nothing, so its floor stays at 1.1.
CHECK_FLOORS: dict[str, float | None] = {
    "engine_switch": 1.1,
    "bulk_costing": 10.0,
    "collectives_micro": 1.1,
    "gups_slice": None,
}


@dataclass(frozen=True)
class BenchResult:
    """Before/after wall-clock medians for one micro-benchmark."""

    name: str
    detail: str
    repeats: int
    before_s: float
    after_s: float

    @property
    def speedup(self) -> float:
        return self.before_s / self.after_s if self.after_s > 0 else float("inf")

    def as_dict(self) -> dict:
        return {
            "detail": self.detail,
            "repeats": self.repeats,
            "before_s": self.before_s,
            "after_s": self.after_s,
            "speedup": self.speedup,
        }


def _median(xs: list[float]) -> float:
    s = sorted(xs)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


@contextlib.contextmanager
def _one_cpu():
    """Pin the process to one CPU while timing.  PE threads are
    cooperative — one runs at a time and every handoff wakes another —
    so left free the OS migrates them between cores at each handoff:
    unpinned, ``collectives_micro`` read speedups from 1.09x to 2.79x in
    consecutive runs on the 2-core reference host; pinned, 1.38-1.43x."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def _measure(workload: Callable[[bool], None], repeats: int) -> tuple[float, float]:
    """Median wall seconds of ``workload(fast)`` for both arms.

    Arms alternate (before, after, before, ...) so slow drift in host
    load hits both medians equally.  Garbage from earlier arms (and
    earlier benchmarks) is collected before each timing so no arm pays
    another's allocator debt; collections triggered *by* the workload
    still count against it.
    """
    before: list[float] = []
    after: list[float] = []
    with _one_cpu():
        for _ in range(repeats):
            for fast, acc in ((False, before), (True, after)):
                gc.collect()
                t0 = time.perf_counter()
                workload(fast)
                acc.append(time.perf_counter() - t0)
    return _median(before), _median(after)


# -- benchmarks ------------------------------------------------------------


def bench_engine_switch(repeats: int = 5, quick: bool = False) -> BenchResult:
    """Context-switch rate: every checkpoint yields to another PE."""
    from ..sim.engine import Engine

    n_pes = 4
    yields = 800 if quick else 4000

    def workload(fast: bool) -> None:
        eng = Engine(n_pes, direct_handoff=fast)

        def body(pe) -> None:
            for _ in range(yields):
                pe.advance(1.0)
                eng.checkpoint()

        eng.run(body)

    before, after = _measure(workload, repeats)
    return BenchResult(
        name="engine_switch",
        detail=f"{n_pes} PEs x {yields} forced yields",
        repeats=repeats,
        before_s=before,
        after_s=after,
    )


def bench_bulk_costing(repeats: int = 5, quick: bool = False) -> BenchResult:
    """Sequential-range costing below the streaming cutoff."""
    from ..machine.memsys import MemoryHierarchy
    from ..params import MemoryParams

    nbytes = (512 if quick else 2048) * 1024
    sweeps = 2 if quick else 6

    def workload(fast: bool) -> None:
        hier = MemoryHierarchy(MemoryParams())
        hier.fast_path = fast
        for i in range(sweeps):
            hier.access_range(0, nbytes, write=bool(i & 1))

    before, after = _measure(workload, repeats)
    return BenchResult(
        name="bulk_costing",
        detail=f"{sweeps} x {nbytes >> 10} KiB access_range sweeps",
        repeats=repeats,
        before_s=before,
        after_s=after,
    )


def bench_collectives_micro(repeats: int = 3, quick: bool = False) -> BenchResult:
    """End-to-end collectives on an 8-PE machine (makespan workload)."""
    from ..params import MachineConfig
    from ..runtime.context import Machine

    n_pes = 8
    # The payload points of benchmarks/bench_collectives_micro.py: a
    # latency-dominated size and a bandwidth-dominated one.
    sizes = (8, 256) if quick else (8, 1024)
    ops = ("broadcast", "reduce", "allreduce", "alltoall")

    def body(ctx, op: str, nelems: int) -> None:
        ctx.init()
        n = ctx.num_pes()
        src = ctx.malloc(8 * nelems * n)
        dest = ctx.malloc(8 * nelems * n)
        ctx.view(src, "int64", nelems)[:] = np.arange(nelems) + ctx.my_pe()
        if op == "broadcast":
            ctx.broadcast(src, src, nelems, 1, 0)
        elif op == "reduce":
            ctx.reduce(dest, src, nelems, 1, 0, "sum")
        elif op == "allreduce":
            ctx.allreduce(dest, src, nelems, 1, "sum")
        else:
            ctx.alltoall(dest, src, nelems)
        ctx.close()

    iters = 1 if quick else 3

    def workload(fast: bool) -> None:
        for _ in range(iters):
            for op in ops:
                for nelems in sizes:
                    machine = Machine(MachineConfig(n_pes=n_pes),
                                      fast_paths=fast)
                    machine.run(body, [(op, nelems)] * n_pes)

    before, after = _measure(workload, repeats)
    return BenchResult(
        name="collectives_micro",
        detail=f"{'/'.join(ops)} @ {'/'.join(map(str, sizes))} int64 "
               f"on {n_pes} PEs",
        repeats=repeats,
        before_s=before,
        after_s=after,
    )


def bench_gups_slice(repeats: int = 3, quick: bool = False) -> BenchResult:
    """Short verified GUPs run (scalar random-access hot path)."""
    from ..bench.gups import GupsParams, run_gups
    from ..params import MachineConfig

    n_pes = 4
    updates = 128 if quick else 512
    params = GupsParams(log2_table_size=16, updates_per_pe=updates)
    config = MachineConfig(n_pes=n_pes)

    def workload(fast: bool) -> None:
        res = run_gups(config, params, fast_paths=fast)
        assert res.passed

    before, after = _measure(workload, repeats)
    return BenchResult(
        name="gups_slice",
        detail=f"2^16-word table, {updates} updates/PE on {n_pes} PEs, verified",
        repeats=repeats,
        before_s=before,
        after_s=after,
    )


_BENCHES: tuple[Callable[[int, bool], BenchResult], ...] = (
    bench_engine_switch,
    bench_bulk_costing,
    bench_collectives_micro,
    bench_gups_slice,
)


def run_all(repeats: int = 5, quick: bool = False) -> dict:
    """Run every benchmark; returns the ``BENCH_simwall.json`` document."""
    results = [b(repeats, quick) for b in _BENCHES]
    return {
        "schema": SCHEMA,
        "quick": quick,
        "host": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
        "benchmarks": {r.name: r.as_dict() for r in results},
    }
