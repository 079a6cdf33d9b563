"""Short single-layer probes for the traced run.

Each probe times one layer's public entry point in isolation, with no
wrappers installed, and returns host time per unit of that layer's
work — the number to multiply by a traced count.  All are host-clock
measurements except :func:`evaluate_vs_sim_err_max`, which compares the
two model clocks and repeats exactly.
"""

from __future__ import annotations

import gc
import os
import statistics
import time

import numpy as np

import workloads
from repro.backends import get_backend
from repro.bench import gups as gups_mod
from repro.collectives import allreduce as allreduce_mod
from repro.collectives import broadcast as broadcast_mod
from repro.collectives.schedule import evaluate as evaluate_mod
from repro.machine.memsys import MemoryHierarchy
from repro.params import MachineConfig, MemoryParams
from repro.runtime.context import Machine
from repro.sim.engine import Engine

__all__ = [
    "engine_switch_us", "memsys_scalar_ns_per_access",
    "memsys_bulk_ns_per_line", "machine_run_overhead_ms", "compile_hit_us",
    "evaluate_vs_sim_err_max", "unpinned_wall_ratio", "backends",
]

N_PES = 8
SWEEP_BYTES = 2 * 1024 * 1024


def _median_of(fn, quick: bool, repeats: int = 5) -> float:
    """Median of ``fn()`` (a duration in seconds) after one warm-up;
    ``quick`` (the self-test) takes a single cold sample."""
    if quick:
        return fn()
    fn()
    out = []
    for _ in range(repeats):
        gc.collect()
        out.append(fn())
    return statistics.median(out)


def engine_switch_us(quick: bool = False) -> float:
    """Host microseconds per forced PE-to-PE handoff at 8 PEs.

    Every PE advances its clock and yields, so each ``checkpoint`` finds
    a peer with a smaller clock and must switch threads.
    """
    yields = 50 if quick else 2000

    def once() -> float:
        engine = Engine(N_PES)

        def body(pe) -> None:
            for _ in range(yields):
                pe.advance(1.0)
                engine.checkpoint()

        t0 = time.perf_counter()
        engine.run(body)
        return time.perf_counter() - t0

    return _median_of(once, quick) / (N_PES * yields) * 1e6


def memsys_scalar_ns_per_access(quick: bool = False) -> float:
    """Host ns per scalar ``MemoryHierarchy.access`` at random addresses
    inside a 2 MiB window (the GUPs access shape)."""
    accesses = 500 if quick else 40000
    rng = np.random.default_rng(0)
    addrs = [int(a) * 8 for a in rng.integers(0, SWEEP_BYTES // 8, accesses)]

    def once() -> float:
        hier = MemoryHierarchy(MemoryParams())
        access = hier.access
        t0 = time.perf_counter()
        for i, addr in enumerate(addrs):
            access(addr, 8, i & 1 == 1)
        return time.perf_counter() - t0

    return _median_of(once, quick) / accesses * 1e9


def memsys_bulk_ns_per_line(quick: bool = False) -> float:
    """Host ns per cache line of ``access_range`` over 2 MiB sweeps (the
    NAS IS access shape)."""
    sweeps = 1 if quick else 6
    line_bytes = MemoryParams().l1.line_bytes

    def once() -> float:
        hier = MemoryHierarchy(MemoryParams())
        t0 = time.perf_counter()
        for i in range(sweeps):
            hier.access_range(0, SWEEP_BYTES, write=bool(i & 1))
        return time.perf_counter() - t0

    return _median_of(once, quick) / (sweeps * SWEEP_BYTES // line_bytes) * 1e9


def _empty_body(ctx) -> None:
    ctx.init()
    ctx.close()


def machine_run_overhead_ms(quick: bool = False) -> float:
    """Host ms to build an 8-PE ``Machine`` and run an empty program."""
    config = MachineConfig(n_pes=N_PES)

    def once() -> float:
        t0 = time.perf_counter()
        Machine(config).run(_empty_body)
        return time.perf_counter() - t0

    return _median_of(once, quick, repeats=9) * 1e3


def compile_hit_us(quick: bool = False) -> float:
    """Host microseconds per ``compile_*`` call that hits the cache."""
    calls = 100 if quick else 5000
    allreduce_mod.compile_allreduce(N_PES, 8, 1, 8, "sum")

    def once() -> float:
        t0 = time.perf_counter()
        for _ in range(calls):
            allreduce_mod.compile_allreduce(N_PES, 8, 1, 8, "sum")
        return time.perf_counter() - t0

    return _median_of(once, quick) / calls * 1e6


def _sim_collective(ctx, collective: str, nelems: int) -> tuple[float, float]:
    ctx.init()
    src = ctx.malloc(8 * nelems)
    dst = ctx.malloc(8 * nelems)
    ctx.view(src, "int64", nelems)[:] = ctx.my_pe()
    # Same entry state as the evaluator: all clocks equal at the call.
    ctx.barrier()
    t0 = ctx.time_ns
    if collective == "broadcast":
        ctx.broadcast(dst, src, nelems, 1, 0, dtype="int64")
    else:
        ctx.allreduce(dst, src, nelems, 1, op="sum", dtype="int64")
    t1 = ctx.time_ns
    ctx.close()
    return t0, t1


def evaluate_vs_sim_err_max() -> float:
    """Largest relative gap between ``evaluate_schedule`` and the
    simulator's clock for broadcast and allreduce at 8 PEs, 8 and 1024
    elements.  Both sides are model time, so the value repeats exactly."""
    config = MachineConfig(n_pes=N_PES)
    worst = 0.0
    for collective in ("broadcast", "allreduce"):
        for nelems in (8, 1024):
            if collective == "broadcast":
                sched = broadcast_mod.compile_broadcast(N_PES, 0, nelems, 1, 8)
            else:
                sched = allreduce_mod.compile_allreduce(
                    N_PES, nelems, 1, 8, "sum")
            model = evaluate_mod.evaluate_schedule(
                sched, config, dtype=np.dtype(np.int64),
                collect_data=False).elapsed_ns
            machine = Machine(config)
            per_pe = machine.run(_sim_collective,
                                 [(collective, nelems)] * N_PES)
            # ctx.time_ns is dilated; the evaluator reports raw model ns
            sim = (max(t1 for _, t1 in per_pe)
                   - max(t0 for t0, _ in per_pe)) / config.time_dilation
            worst = max(worst, abs(model - sim) / sim)
    return worst


def unpinned_wall_ratio(seed: int, pinned_cpus: set[int],
                        all_cpus: set[int]) -> float:
    """Wall time of a short 8-PE GUPs run with the process free to
    migrate, over the same run pinned.  A diagnostic of the host, and
    the reason the sim workloads pin; not gated."""
    config = MachineConfig(n_pes=N_PES)
    params = gups_mod.GupsParams(log2_table_size=16, updates_per_pe=256,
                                 seed=seed)

    def once() -> float:
        t0 = time.perf_counter()
        gups_mod.run_gups(config, params)
        return time.perf_counter() - t0

    pinned = _median_of(once, False, repeats=3)
    os.sched_setaffinity(0, all_cpus)
    try:
        unpinned = _median_of(once, False, repeats=3)
    finally:
        os.sched_setaffinity(0, pinned_cpus)
    return unpinned / pinned


def backends(seed: int, pinned_cpus: set[int], all_cpus: set[int],
             quick: bool = False) -> dict[str, float]:
    """The ``coll_small_sim`` program once on each backend and once under
    the mailbox transport, with the per-PE output digests required to be
    byte-identical everywhere.  mp workers are processes, so that leg
    runs unpinned."""
    config = MachineConfig(n_pes=N_PES)
    iters = 2 if quick else 40
    args = [(workloads.coll_inputs(seed, N_PES, iters),)] * N_PES

    def run(fn) -> tuple[float, list[str]]:
        fn()    # warm the compile and lowering caches of this leg
        gc.collect()
        t0 = time.perf_counter()
        results = fn()
        wall = time.perf_counter() - t0
        if any(bad for bad, _ in results):
            raise AssertionError("collective output differs from its oracle")
        return wall, [digest for _, digest in results]

    machines: dict[str, Machine] = {}

    def on_machine(transport: str):
        machines[transport] = Machine(config, transport=transport)
        return machines[transport].run(workloads.coll_program, args)

    sim_wall, want = run(lambda: on_machine("onesided"))
    mbx_wall, mbx = run(lambda: on_machine("mailbox"))
    vec_wall, vec = run(lambda: get_backend("vec").run(
        workloads.coll_program, args, config=config))
    os.sched_setaffinity(0, all_cpus)
    try:
        mp_wall, mp = run(lambda: get_backend("mp").run(
            workloads.coll_program, args, config=config))
    finally:
        os.sched_setaffinity(0, pinned_cpus)
    for name, got in (("mailbox", mbx), ("vec", vec), ("mp", mp)):
        if got != want:
            raise AssertionError(f"{name} outputs are not byte-identical "
                                 "to the sim backend's")
    return {
        "backend.sim.wall_s": sim_wall,
        "backend.vec.wall_s": vec_wall,
        "backend.mp.wall_s": mp_wall,
        "mailbox.wall_ratio": mbx_wall / sim_wall,
        "mailbox.model_ratio": (machines["mailbox"].elapsed_ns
                                / machines["onesided"].elapsed_ns),
    }
