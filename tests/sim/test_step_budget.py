"""Host-work budget of the small-collective step path: counts, no clock.

``coll_small_sim`` (the paper's collectives at 4-12 int64 on 8 PEs) is
latency-bound: its host time is Python work per step — the executor's
step loop, the barrier, the engine's handoffs, the transfer engine, the
memory model and the network — not any one hot spot.  This gate counts
that work without a clock: the Python ``call`` events on every PE thread
over ``CALLS`` warm 8-PE calls of each of the workload's five
collectives at 4 and 12 elements, net of the same program with no
calls, per collective call.

The budgets are the counts measured when they were set (Python 3.11)
plus about 5 % headroom.  Python 3.12 inlines comprehensions, which
only lowers the counts.  A change that adds a Python frame to every
step of every PE shows up here as hundreds of calls.
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro.params import MachineConfig
from repro.runtime import Machine

CALLS = 20
N_PES = 8
COLLECTIVES = ("broadcast", "reduce", "allreduce", "scan", "alltoall")
SIZES = (4, 12)

#: Python calls per collective call, all PEs together.  Before the step
#: loop was one loop and the small-op path lean, the counts were 649,
#: 738, 998, 1183, 1852, 2308, 1539, 1918, 1607 and 2319, in this order;
#: before the front doors bound their ``prepare_*`` once and a LIFO
#: private buffer stopped scanning the free list, 521, 562, 799, 888,
#: 1406, 1622, 1186, 1367, 1174 and 1502.
BUDGETS = {
    ("broadcast", 4): 547,
    ("broadcast", 12): 590,
    ("reduce", 4): 822,
    ("reduce", 12): 916,
    ("allreduce", 4): 1460,
    ("allreduce", 12): 1686,
    ("scan", 4): 1229,
    ("scan", 12): 1419,
    ("alltoall", 4): 1233,
    ("alltoall", 12): 1577,
}


def program(name: str, nelems: int, calls: int):
    """Two warm-up calls of ``name`` over ``nelems`` int64, then
    ``calls`` more."""
    def body(ctx):
        ctx.init()
        n = ctx.num_pes()
        src = ctx.malloc(8 * n * max(SIZES))
        dst = ctx.malloc(8 * n * max(SIZES))

        def one():
            if name == "broadcast":
                ctx.broadcast(dst, src, nelems, 1, 0, dtype="int64")
            elif name == "reduce":
                ctx.reduce(dst, src, nelems, 1, 0, op="sum", dtype="int64")
            elif name == "allreduce":
                ctx.allreduce(dst, src, nelems, 1, op="sum", dtype="int64")
            elif name == "scan":
                ctx.scan(dst, src, nelems, 1, op="sum", dtype="int64")
            else:
                ctx.alltoall(dst, src, nelems, dtype="int64")

        for _ in range(2 + calls):
            one()
        ctx.close()

    return body


def python_calls(body) -> int:
    """``call`` events on the PE threads of one 8-PE run of ``body``.

    Each PE thread counts from the start of its program to the end, so
    thread start-up, whose calls depend on host timing, is left out; a
    PE's steps that another thread runs as a continuation are counted
    on that thread.  The cycle collector is off meanwhile: the finalisers
    it runs come at allocation-dependent times.
    """
    box = [0]

    def on_event(frame, event, arg):
        if event == "call":
            box[0] += 1

    def counted(ctx):
        sys.setprofile(on_event)
        try:
            body(ctx)
        finally:
            sys.setprofile(None)

    gc.disable()
    try:
        Machine(MachineConfig(n_pes=N_PES)).run(counted)
    finally:
        gc.enable()
    return box[0]


def calls_per_collective(name: str, nelems: int) -> float:
    idle = python_calls(program(name, nelems, 0))
    return (python_calls(program(name, nelems, CALLS)) - idle) / CALLS


@pytest.fixture(scope="module", autouse=True)
def _warm():
    # The first run of a shape imports and compiles; count none of it.
    for name in COLLECTIVES:
        for nelems in SIZES:
            python_calls(program(name, nelems, 0))


def test_counts_are_deterministic():
    body = program("allreduce", 4, 2)
    assert python_calls(body) == python_calls(body)


@pytest.mark.parametrize("nelems", SIZES)
@pytest.mark.parametrize("name", COLLECTIVES)
def test_step_budget(name, nelems):
    got = calls_per_collective(name, nelems)
    assert got <= BUDGETS[name, nelems], (name, nelems, got)


if __name__ == "__main__":  # pragma: no cover - prints the counts
    for name in COLLECTIVES:
        for nelems in SIZES:
            python_calls(program(name, nelems, 0))
            print(name, nelems, calls_per_collective(name, nelems))
