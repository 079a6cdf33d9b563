"""Per-PE model clocks of the composed collectives, pinned exactly.

The hierarchical broadcast and reduce and the tree allgather used to
run two or three compiled schedules one after another; each is one
chained schedule now (``chain_schedules``), and must cost what the
composition cost, PE by PE.  ``BENCH_locality.json`` pins only the
broadcast's slowest PE; ``composed_clocks.json`` holds, for every PE,
the simulated ns from a barrier to the end of the call — the hierarchical
reduce and broadcast on 8 PEs over 4 nodes, in blocks and round-robin,
at a root that leads its node and one that would not, and the tree
allgather of ragged blocks on 2–16 PEs — measured with this module's
:func:`clocks` on the commit before the chain (c7d7051).  The vec
evaluator prices the hierarchical schedules against the same clocks.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.collectives.hierarchy import (compile_hierarchical_broadcast,
                                        compile_hierarchical_reduce)
from repro.collectives.schedule.evaluate import evaluate_schedule
from repro.params import MachineConfig
from repro.runtime import Machine

GOLDEN = json.loads(Path(__file__).with_name("composed_clocks.json")
                    .read_text())
I64 = np.dtype(np.int64)


def _config(n_pes: int, **kw) -> MachineConfig:
    return MachineConfig(n_pes=n_pes, memory_bytes_per_pe=16 << 20,
                         symmetric_heap_bytes=8 << 20,
                         collective_scratch_bytes=2 << 20, **kw)


def clocks(config: MachineConfig, op) -> list:
    """Each PE's ns from a barrier to the end of ``op(ctx, a, b)``, on
    two symmetric buffers, ``b`` holding 512 rank-salted elements."""
    def body(ctx):
        ctx.init()
        a = ctx.malloc(8 * 512 * 16)
        b = ctx.malloc(8 * 512 * 16)
        ctx.view(b, I64, 512)[:] = np.arange(512) + ctx.my_pe()
        ctx.barrier()
        t0 = ctx.pe.clock
        op(ctx, a, b)
        dt = ctx.pe.clock - t0
        ctx.close()
        return dt
    return Machine(config).run(body)


def _case(name: str):
    kind, *rest = name.split()
    if kind == "allgather":
        n = int(rest[0].split("=")[1])
        counts = tuple(0 if i == n // 2 else (i % 3) + 1 for i in range(n))
        disps = tuple(int(x) for x in np.cumsum((0,) + counts[:-1]))
        return _config(n, cores_per_node=2), lambda c, a, b: c.allgather(
            a, b, counts, disps, sum(counts), I64, algorithm="tree")
    placement, root = rest[0], int(rest[1].split("=")[1])
    cfg = _config(8, cores_per_node=2, pe_node_map=tuple(
        i % 4 for i in range(8)) if placement == "scattered" else None)
    if kind == "reduce":
        return cfg, lambda c, a, b: c.reduce(
            a, b, 512, 1, root, "sum", I64, algorithm="hierarchical")
    return cfg, lambda c, a, b: c.broadcast(
        a, b, 512, 1, root, I64, algorithm="hierarchical")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_clocks_match_the_composition(name):
    assert clocks(*_case(name)) == GOLDEN[name]


#: How far the evaluator may price a hierarchical broadcast's PE from its
#: pinned clock.  The evaluator reads network quiescence once a phase has
#: run on every node; the simulator reads it at each node's own release,
#: in its event order.  So the node that finishes first in the simulator
#: waits here on the slowest node's puts: 7.3 % on the 8-PE cases, and
#: 0.6 % on the slowest PE.  A reduction's clocks agree exactly.
BROADCAST_RTOL = 0.08


@pytest.mark.parametrize("name", sorted(
    name for name in GOLDEN if not name.startswith("allgather")))
def test_evaluator_prices_the_partitioned_schedule(name):
    cfg, _ = _case(name)
    kind, root = name.split()[0], int(name.split("=")[1])
    nodes = tuple(map(cfg.node_of, range(cfg.n_pes)))
    sched = compile_hierarchical_reduce(nodes, root, 512, 1, 8, "sum") \
        if kind == "reduce" else \
        compile_hierarchical_broadcast(nodes, root, 512, 1, 8)
    got = evaluate_schedule(sched, cfg, dtype=I64).makespans
    rtol = 1e-12 if kind == "reduce" else BROADCAST_RTOL
    assert got == pytest.approx(GOLDEN[name], rel=rtol)
    assert max(got) == pytest.approx(max(GOLDEN[name]), rel=0.01)
