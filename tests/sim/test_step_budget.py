"""Host-work budget of the small-collective step path: counts, no clock.

``coll_small_sim`` (the paper's collectives at 4-12 int64 on 8 PEs) is
latency-bound: its host time is Python work per step — the executor's
step loop, the barrier, the engine's handoffs, the transfer engine, the
memory model and the network — not any one hot spot.  This gate counts
that work without a clock: the Python ``call`` events on every PE thread
over ``CALLS`` warm 8-PE calls of each of the workload's five
collectives at 4 and 12 elements, net of the same program with no
calls, per collective call.

GUPs (the paper's Figure 4 kernel) is gated the same way per update:
its remote get-xor-put (or amo) is one step of a PE's update stream, a
generator resumed as an engine continuation, and each get or put one
frame per layer (the transfer engine's one-word path).

The budgets are the counts measured when they were set (Python 3.11)
plus about 5 % headroom.  Python 3.12 inlines comprehensions, which
only lowers the counts.  A change that adds a Python frame to every
step of every PE shows up here as hundreds of calls.
"""

from __future__ import annotations

import gc
import sys

import pytest

from repro.bench.gups import GupsParams, _gups_pe
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
#: 1406, 1622, 1186, 1367, 1174 and 1502; before the node bus was priced
#: inline and a hit on the TLB's most recent page cost no call, 521, 562,
#: 783, 872, 1390, 1606, 1170, 1351, 1174 and 1502; before one
#: ``prepare`` read each collective's record in place of nine
#: ``prepare_*`` chains, 505, 537, 765, 829, 1318, 1478, 1117, 1249, 1046
#: and 1302.
BUDGETS = {
    ("broadcast", 4): 505,
    ("broadcast", 12): 538,
    ("reduce", 4): 769,
    ("reduce", 12): 836,
    ("allreduce", 4): 1358,
    ("allreduce", 12): 1526,
    ("scan", 4): 1147,
    ("scan", 12): 1286,
    ("alltoall", 4): 1089,
    ("alltoall", 12): 1358,
}


#: Python calls per GUPs update on 8 PEs (2^14 words, verification on:
#: both passes count), get-xor-put and amo.  While the update stream was
#: a re-entered step object and every get and put took the general
#: transfer path, 31.8 and 15.7; now 16.8 and 10.9.
GUPS_BUDGETS = {False: 17.6, True: 11.5}


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


def gups(updates: int, use_amo: bool):
    """GUPs on every PE with ``updates`` updates per PE."""
    params = GupsParams(log2_table_size=14, updates_per_pe=updates,
                        use_amo=use_amo)
    return lambda ctx: _gups_pe(ctx, params)


def calls_per_update(use_amo: bool) -> float:
    """Calls that going from 64 to 256 updates per PE adds, per update."""
    added = (python_calls(gups(256, use_amo))
             - python_calls(gups(64, use_amo)))
    return added / (N_PES * (256 - 64) * 2)  # two passes: verify is on


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
    for use_amo in GUPS_BUDGETS:
        python_calls(gups(64, use_amo))


def test_counts_are_deterministic():
    body = program("allreduce", 4, 2)
    assert python_calls(body) == python_calls(body)


@pytest.mark.parametrize("nelems", SIZES)
@pytest.mark.parametrize("name", COLLECTIVES)
def test_step_budget(name, nelems):
    got = calls_per_collective(name, nelems)
    assert got <= BUDGETS[name, nelems], (name, nelems, got)


@pytest.mark.parametrize("use_amo", sorted(GUPS_BUDGETS),
                         ids=["get-put", "amo"])
def test_gups_update_budget(use_amo):
    got = calls_per_update(use_amo)
    assert got <= GUPS_BUDGETS[use_amo], ("amo" if use_amo else "get-put",
                                          got)


if __name__ == "__main__":  # pragma: no cover - prints the counts
    for name in COLLECTIVES:
        for nelems in SIZES:
            python_calls(program(name, nelems, 0))
            print(name, nelems, calls_per_collective(name, nelems))
    for use_amo in sorted(GUPS_BUDGETS):
        python_calls(gups(64, use_amo))
        print("gups", "amo" if use_amo else "get-put",
              calls_per_update(use_amo))
