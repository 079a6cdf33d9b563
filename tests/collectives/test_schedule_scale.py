"""Compile + lint at scale: 1k–64k PEs stay clean, fast and sub-quadratic.

The vec evaluator makes large-PE schedules routine, which makes the
*compilers* the new scaling bottleneck.  These tests pin four things
per algorithm family:

* the linter finds nothing at 1k/4k PEs (deadlock freedom, matched
  peers, bounds, phase overlap and data conservation all hold at sizes
  the 1–16 PE suites never exercise);
* compile + lint stays inside a pinned wall-clock budget (~4× headroom
  over measured times on the CI class of machine), so an accidentally
  quadratic compile path fails loudly instead of slowing every sweep;
* total step-object counts grow O(N log N), the direct structural
  check for the same regression;
* the hot path never reads a schedule as text: lint, evaluation,
  execution and the rewrites never call ``Schedule.program`` or render
  a step's text from its row.

Ring, linear, alltoall and dissemination-allgather schedules are
inherently Θ(N²) total steps (every rank touches every other rank or
every block), so they are exercised at 1k only and excluded from the
larger tiers by design.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from repro.collectives.allreduce import compile_allreduce
from repro.collectives.broadcast import compile_broadcast
from repro.collectives.extra import (
    compile_allgather,
    compile_allgather_pat,
    compile_allgather_tree,
    compile_alltoall,
)
from repro.collectives.gather import compile_gather
from repro.collectives.hierarchy import (
    compile_hierarchical_broadcast,
    compile_hierarchical_reduce,
)
from repro.collectives.reduce import compile_reduce
from repro.collectives.reduce_scatter import compile_reduce_scatter
from repro.collectives.scan import compile_scan
from repro.collectives.scatter import compile_scatter
from repro.collectives.schedule.evaluate import evaluate_schedule
from repro.collectives.schedule.ir import Schedule, StepTable
from repro.collectives.schedule.lint import lint_schedule
from repro.collectives.schedule.registry import BUILTIN_ALGORITHMS
from repro.runtime.context import Machine

from ..conftest import small_config


def _ragged(n: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    counts = tuple(i % 3 for i in range(n))
    disps, acc = [], 0
    for c in counts:
        disps.append(acc)
        acc += c
    return counts, tuple(disps), acc


def _count_text_reads(monkeypatch) -> list:
    """A one-item list counting the calls of ``Schedule.program`` and of
    the row renderer every text goes through (``StepTable._texts``)."""
    calls = [0]
    for owner, name in ((Schedule, "program"), (StepTable, "_texts")):
        def counted(*args, _real=getattr(owner, name), **kwargs):
            calls[0] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def _total_steps(sched) -> int:
    """Steps of every rank, barriers included, off the cached table."""
    return len(sched.table) + int(sched.table.barriers.sum())


#: (name, compile thunk factory, seconds budget by tier).  Budgets are
#: ~4× the measured compile+lint time; a quadratic regression overshoots
#: them by orders of magnitude, honest machine jitter does not.
_CASES = [
    ("broadcast-binomial",
     lambda n: compile_broadcast(n, 0, 64, 1, 8)),
    ("reduce-binomial",
     lambda n: compile_reduce(n, 0, 64, 1, 8, "sum")),
    ("allreduce-doubling",
     lambda n: compile_allreduce(n, 64, 1, 8, "sum", algorithm="doubling")),
    ("allreduce-rabenseifner",
     lambda n: compile_allreduce(n, 64, 1, 8, "sum",
                                 algorithm="rabenseifner")),
    ("scatter-ragged",
     lambda n: compile_scatter(n, 0, *_ragged(n)[:2], _ragged(n)[2], 8)),
    ("gather-ragged",
     lambda n: compile_gather(n, 0, *_ragged(n)[:2], _ragged(n)[2], 8)),
]

_BUDGET_S = {1024: 5.0, 4096: 12.0}


@pytest.mark.parametrize("n_pes", [1024, 4096])
@pytest.mark.parametrize("name,compile_fn", _CASES,
                         ids=[c[0] for c in _CASES])
def test_lint_clean_and_fast_at_scale(name, compile_fn, n_pes):
    t0 = time.perf_counter()
    sched = compile_fn(n_pes)
    issues = lint_schedule(sched)
    wall = time.perf_counter() - t0
    assert issues == [], (
        f"{name} at {n_pes} PEs: " + "; ".join(str(i) for i in issues[:5])
    )
    budget = _BUDGET_S[n_pes]
    assert wall < budget, (
        f"{name} at {n_pes} PEs: compile+lint took {wall:.1f}s "
        f"(budget {budget:.0f}s) — quadratic compile path?"
    )
    # O(N log N) structural bound: logarithmic trees/butterflies emit a
    # small constant number of steps per rank per round.
    bound = 10 * n_pes * (math.log2(n_pes) + 2)
    steps = _total_steps(sched)
    assert steps < bound, (
        f"{name} at {n_pes} PEs emits {steps} steps "
        f"(O(N log N) bound {bound:.0f})"
    )


@pytest.mark.stress
@pytest.mark.parametrize("name,compile_fn", [
    ("broadcast-binomial", lambda n: compile_broadcast(n, 0, 4, 1, 8)),
    ("reduce-binomial", lambda n: compile_reduce(n, 0, 4, 1, 8, "sum")),
])
def test_lint_clean_at_64k(name, compile_fn):
    """The 64k tier: logarithmic-depth trees only (Θ(N²) families are
    capped at the 1k tier by design, see module docstring)."""
    n_pes = 65536
    t0 = time.perf_counter()
    sched = compile_fn(n_pes)
    issues = lint_schedule(sched)
    wall = time.perf_counter() - t0
    assert issues == [], "; ".join(str(i) for i in issues[:5])
    assert wall < 45.0, (
        f"{name} at 64k PEs: compile+lint took {wall:.1f}s (budget 45s)"
    )
    assert _total_steps(sched) < 10 * n_pes * (math.log2(n_pes) + 2)


def test_quadratic_families_lint_clean_at_1k():
    """Ring/linear stay in the suite, at the largest tier that is still
    cheap for Θ(N²) step counts."""
    n = 1024
    for name, sched in (
        ("allreduce-ring",
         compile_allreduce(n, 2048, 1, 8, "sum", algorithm="ring")),
        ("broadcast-ring",
         compile_broadcast(n, 0, 2048, 1, 8, algorithm="ring")),
        ("broadcast-linear",
         compile_broadcast(n, 0, 8, 1, 8, algorithm="linear")),
        ("reduce-linear",
         compile_reduce(n, 0, 8, 1, 8, "sum", algorithm="linear")),
    ):
        issues = lint_schedule(sched)
        assert issues == [], (
            f"{name}: " + "; ".join(str(i) for i in issues[:5])
        )


def _compile(collective: str, algorithm: str, n_pes: int, root: int,
             nelems: int):
    """One shape of the pair: ragged blocks with zero-count PEs for the
    vector collectives, four segments for the pipelined ones, ranks dealt
    round-robin over four nodes for the hierarchical ones."""
    counts, disps, total = _ragged(n_pes)
    nodes = tuple(r % 4 for r in range(n_pes))
    if (collective, algorithm) == ("broadcast", "hierarchical"):
        return compile_hierarchical_broadcast(nodes, root, nelems, 1, 8)
    if (collective, algorithm) == ("reduce", "hierarchical"):
        return compile_hierarchical_reduce(nodes, root, nelems, 1, 8, "sum")
    if collective == "broadcast":
        return compile_broadcast(n_pes, root, nelems, 1, 8,
                                 algorithm=algorithm)
    if collective == "reduce":
        return compile_reduce(n_pes, root, nelems, 1, 8, "sum",
                              algorithm=algorithm)
    if collective == "allreduce":
        return compile_allreduce(n_pes, nelems, 1, 8, "sum",
                                 algorithm=algorithm, segments=4)
    if collective == "scan":
        return compile_scan(n_pes, nelems, 1, 8, "sum", False)
    if collective == "scatter":
        return compile_scatter(n_pes, root, counts, disps, total, 8)
    if collective == "gather":
        return compile_gather(n_pes, root, counts, disps, total, 8)
    if collective == "allgather":
        if algorithm == "pat":
            return compile_allgather_pat(n_pes, counts, disps, total, 8, 4)
        if algorithm == "tree":
            return compile_allgather_tree(n_pes, counts, disps, total, 8)
        return compile_allgather(n_pes, counts, disps, total, 8)
    if collective == "alltoall":
        return compile_alltoall(n_pes, nelems, 8)
    return compile_reduce_scatter(n_pes, counts, disps, total, 8, "sum",
                                  algorithm=algorithm, segments=4)


def _run_once(ctx, collective: str, algorithm: str) -> bool:
    """One call of the collective on this PE; whether its output is
    right."""
    ctx.init()
    me, n, k, root = ctx.my_pe(), ctx.num_pes(), 5, 1
    counts, disps, total = _ragged(n)
    i64 = np.dtype(np.int64)
    src = ctx.malloc(8 * k * n)
    dest = ctx.malloc(8 * k * n)
    ctx.view(src, i64, k * n)[:] = np.arange(k * n) + 100 * me
    ctx.barrier()
    mine = np.arange(k) + 100 * me
    block = np.arange(counts[me]) + disps[me]
    laid = np.concatenate([np.arange(c) + 100 * p
                           for p, c in enumerate(counts)])
    if collective == "broadcast":
        ctx.broadcast(dest, src, k, 1, root, i64, algorithm=algorithm)
        want = mine - 100 * (me - root)
    elif collective == "reduce":
        ctx.reduce(dest, src, k, 1, root, "sum", i64, algorithm=algorithm)
        want = n * np.arange(k) + 100 * sum(range(n)) if me == root else None
    elif collective == "allreduce":
        ctx.allreduce(dest, src, k, 1, "sum", i64, algorithm=algorithm,
                      segments=4)
        want = n * np.arange(k) + 100 * sum(range(n))
    elif collective == "scan":
        ctx.scan(dest, src, k, 1, "sum", i64)
        want = (me + 1) * np.arange(k) + 100 * sum(range(me + 1))
    elif collective == "scatter":
        ctx.scatter(dest, src, counts, disps, total, root, i64)
        want = block + 100 * root
    elif collective == "gather":
        ctx.gather(dest, src, counts, disps, total, root, i64)
        want = laid if me == root else None
    elif collective == "allgather":
        ctx.allgather(dest, src, counts, disps, total, i64,
                      algorithm=algorithm, segments=4)
        want = laid
    elif collective == "alltoall":
        ctx.alltoall(dest, src, 1, i64)
        want = me + 100 * np.arange(n)
    else:
        ctx.reduce_scatter(dest, src, counts, disps, total, "sum", i64,
                           algorithm=algorithm, segments=4)
        want = n * block + 100 * sum(range(n))
    ok = want is None or np.array_equal(ctx.view(dest, i64, len(want)),
                                        want)
    ctx.barrier()
    ctx.close()
    return ok


#: Every compiled registry pair; the fused superstep has its own gate.
_COMPILED = [pair for pair in BUILTIN_ALGORITHMS if pair[0] != "superstep"]


@pytest.mark.parametrize("collective,algorithm", _COMPILED,
                         ids=[f"{c}-{a}" for c, a in _COMPILED])
def test_lint_evaluate_and_execute_build_no_tree(collective, algorithm,
                                                 monkeypatch):
    """The perf gate with no clock in it: for every compiler, linting
    its schedule, evaluating it twice and running it once on the
    simulator never call ``program()`` nor render a step's text — the
    text is for ``repr`` and messages, which the hot path never asks
    for."""
    calls = _count_text_reads(monkeypatch)
    sched = _compile(collective, algorithm, 48, 5, 37)
    assert lint_schedule(sched) == []
    first = evaluate_schedule(sched, collect_data=False)
    again = evaluate_schedule(sched, collect_data=False)
    assert first.elapsed_ns == again.elapsed_ns > 0
    machine = Machine(small_config(8))
    assert all(machine.run(_run_once, [(collective, algorithm)] * 8))
    assert calls == [0]


def _flush_once(ctx) -> bool:
    """Two doubling allreduces (widened into one) and a binomial
    broadcast deferred into one superstep, flushed fused."""
    ctx.init()
    me, n, k = ctx.my_pe(), ctx.num_pes(), 6
    i64 = np.dtype(np.int64)
    bufs = [ctx.malloc(8 * k) for _ in range(6)]
    for buf in bufs:
        ctx.view(buf, i64, k)[:] = np.arange(k) + 10 * me
    ctx.barrier()
    with ctx.superstep():
        ctx.allreduce(bufs[1], bufs[0], k, 1, "sum", i64,
                      algorithm="doubling")
        ctx.allreduce(bufs[3], bufs[2], k, 1, "sum", i64,
                      algorithm="doubling")
        ctx.broadcast(bufs[5], bufs[4], k, 1, 2, i64, algorithm="binomial")
    total = n * np.arange(k) + 10 * sum(range(n))
    ok = (np.array_equal(ctx.view(bufs[1], i64, k), total)
          and np.array_equal(ctx.view(bufs[3], i64, k), total)
          and np.array_equal(ctx.view(bufs[5], i64, k), np.arange(k) + 20))
    ctx.barrier()
    ctx.close()
    return ok


def test_rewrites_build_no_tree(monkeypatch):
    """The same gate for the rewrites of a schedule: lowering row-built
    schedules onto the mailbox, widening and fusing them, linting and
    evaluating the results, one mailbox-transport run and one fused
    superstep flush never call ``program()`` nor render a step's text —
    the rewrites read and write rows."""
    from repro.collectives import allreduce, broadcast, reduce
    from repro.collectives.schedule.fuse import (compile_widened,
                                                 fuse_schedules)
    from repro.collectives.schedule.lint import lint_fused_schedule
    from repro.collectives.schedule.mailbox import lower_to_mailbox

    for cache in (allreduce._compile_folded, allreduce._compile_ring,
                  broadcast._compile_binomial, reduce._compile_binomial,
                  compile_widened, fuse_schedules):
        cache.cache_clear()  # every schedule below made and rewritten here
    calls = _count_text_reads(monkeypatch)
    ring = compile_allreduce(24, 29, 1, 8, "sum", algorithm="ring")
    rab = compile_allreduce(24, 29, 1, 8, "sum", algorithm="rabenseifner")
    gets = compile_reduce(24, 5, 29, 1, 8, "sum", algorithm="binomial")
    widened = compile_widened("allreduce", "doubling", 24, 0, "sum", 8,
                              (5, 0, 9))
    fused = fuse_schedules((widened, gets,
                            compile_broadcast(24, 3, 29, 1, 8)))
    for sched in (ring, rab, gets, widened, fused):
        lowered = lower_to_mailbox(sched)
        for result in (sched, lowered):
            assert lint_fused_schedule(result) == [] \
                if result.collective == "superstep" \
                else lint_schedule(result) == []
            assert evaluate_schedule(result).elapsed_ns > 0
    machine = Machine(small_config(8), transport="mailbox")
    assert all(machine.run(_run_once, [("reduce", "binomial")] * 8))
    assert machine.stats.sends > 0
    machine = Machine(small_config(8))
    assert all(machine.run(_flush_once))
    assert calls == [0]
