"""Thread-switch budget of the schedule driver: counts, no clock.

A *dispatch* is one OS-thread wake-up, one release of a parked PE's
baton.  On the direct-handoff engine a PE parked inside a schedule is
continued by whichever thread would have woken it, so a collective
costs about one dispatch per rank — whatever the group, partition,
transport or tracing — where a thread per PE and stage cost one per
rank per stage.  Measured on 8 PEs as the difference between a program
with ``CALLS`` collectives and the same program with none.

A PE-side loop of remote accesses parks the same way: GUPs' update
stream runs as a continuation, so its update phase costs a constant
number of dispatches, where a thread per PE took one per get, put or
amo that yielded.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.gups import GupsParams, _gups_pe
from repro.collectives.teams import Team
from repro.params import MachineConfig
from repro.runtime import Machine

CALLS = 20
I64 = np.dtype("int64")

#: Dispatches per call: a whole-machine collective, and everything
#: that used to take a thread switch per rank per stage.
WHOLE_MACHINE_BUDGET = 23
OTHER_BUDGET = 32
#: Dispatches GUPs may add on 8 PEs going from 64 to 256 updates per PE
#: (a thread per PE added 5 313 with get and put, 2 664 with amo).
GUPS_UPDATES_BUDGET = 16


class _CountingBaton:
    """A PE's baton that counts its releases into ``box``."""

    def __init__(self, lock, box):
        self._lock = lock
        self._box = box

    def acquire(self, *args):
        return self._lock.acquire(*args)

    def release(self):
        self._box[0] += 1
        self._lock.release()


def dispatches(body, config=None, **machine_kw) -> int:
    machine = Machine(config or MachineConfig(n_pes=8), **machine_kw)
    box = [0]
    for pe in machine.engine.pes:
        pe._baton = _CountingBaton(pe._baton, box)
    machine.run(body)
    return box[0]


def per_call(program, config=None, **machine_kw) -> float:
    return (dispatches(program(CALLS), config, **machine_kw)
            - dispatches(program(0), config, **machine_kw)) / CALLS


def allreduce(calls):
    def body(ctx):
        ctx.init()
        src = ctx.malloc(64)
        dst = ctx.malloc(64)
        for _ in range(calls):
            ctx.allreduce(dst, src, 8, 1, "sum", "int64")
        ctx.close()

    return body


def team_pair(calls):
    """Even and odd PEs, each a 4-PE team, side by side."""
    def body(ctx):
        ctx.init()
        src = ctx.malloc(64)
        dst = ctx.malloc(64)
        team = Team(ctx, range(ctx.my_pe() % 2, 8, 2))
        for _ in range(calls):
            team.allreduce(dst, src, 8, 1, "sum", I64)
        ctx.close()

    return body


def hierarchical(calls):
    def body(ctx):
        ctx.init()
        buf = ctx.malloc(64)
        for _ in range(calls):
            ctx.broadcast(buf, buf, 8, 1, 0, "int64",
                          algorithm="hierarchical")
        ctx.close()

    return body


def test_a_traced_run_dispatches_as_often_as_an_untraced_one():
    assert (dispatches(allreduce(CALLS), trace=True)
            == dispatches(allreduce(CALLS)))


def test_whole_machine_collective():
    assert per_call(allreduce) <= WHOLE_MACHINE_BUDGET


@pytest.mark.parametrize("program, config, machine_kw", [
    (team_pair, None, {}),
    (hierarchical, MachineConfig(n_pes=8, cores_per_node=2), {}),
    (allreduce, None, {"transport": "mailbox"}),
], ids=["team-pair", "hierarchical", "mailbox"])
def test_what_used_to_switch_per_stage(program, config, machine_kw):
    assert per_call(program, config, **machine_kw) <= OTHER_BUDGET


def gups(updates: int, use_amo: bool):
    params = GupsParams(log2_table_size=12, updates_per_pe=updates,
                        use_amo=use_amo)
    return lambda ctx: _gups_pe(ctx, params)


@pytest.mark.parametrize("use_amo", [False, True], ids=["get-put", "amo"])
def test_gups_updates_cost_no_dispatch_each(use_amo):
    assert (dispatches(gups(256, use_amo))
            - dispatches(gups(64, use_amo))) <= GUPS_UPDATES_BUDGET
