"""Frozen digests of the vectorized evaluator, through its public entry.

``evaluate_schedule`` prices every message through one shared
:class:`~repro.machine.network.Network`, so the *order* in which the
evaluator executes a phase's lane groups — and the lanes inside a group
— is part of the model: two groups at one step position reserve links
in that order.  The digests below were generated on commit 4ab22ab (the
last one whose evaluator walked the dataclass tree into per-lane
tuples); any change to the group order, the lane order, a cost formula
or a counter shows up here without the old implementation in tree.

One digest per ``(collective, algorithm, N, transport, data)``: sha256
over the per-rank makespans, every :class:`~repro.sim.trace.SimStats`
counter and — with ``collect_data`` — the whole arena, folded over every
registry shape of the pair at that PE count.  A vec-backend *session*
running team collectives covers the per-rank address maps, and four
hand-built schedules pin the group-order rule directly.

To regenerate after an *intended* model change:
``PYTHONPATH=src python tests/collectives/test_evaluator_digest.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.backends import get_backend
from repro.collectives.schedule.evaluate import evaluate_schedule
from repro.collectives.schedule.ir import (
    OP_GET,
    OP_PUT,
    OP_RECV,
    OP_SEND,
    Buffer,
    Rows,
    Schedule,
    skeleton,
)
from repro.collectives.schedule.mailbox import lower_to_mailbox
from repro.collectives.schedule.registry import (
    BUILTIN_ALGORITHMS,
    _shapes_for,
)
from repro.collectives.teams import Team
from repro.errors import SimulationError
from repro.params import MachineConfig

GOLDEN_PATH = Path(__file__).with_name("evaluator_digests.json")
PE_COUNTS = (2, 3, 5, 8, 13, 16)
I64 = np.dtype(np.int64)


def _config(n_pes: int) -> MachineConfig:
    # Two cores per node: both the node-bus and the fabric paths price.
    return MachineConfig(n_pes=n_pes, cores_per_node=2)


def _stats_fields(stats) -> list:
    out = []
    for f in dataclasses.fields(stats):
        v = getattr(stats, f.name)
        if isinstance(v, Counter):
            out.append((f.name, sorted(v.items())))
        elif isinstance(v, (float, np.floating)):
            out.append((f.name, float(v).hex()))
        else:
            out.append((f.name, int(v)))
    return out


def _inputs(sched: Schedule) -> dict:
    """A deterministic byte pattern in every user buffer of every rank."""
    return {
        buf.name: [
            ((np.arange(buf.nbytes_on(r), dtype=np.int64) * 31 + r * 7 + k)
             % 251).astype(np.uint8)
            for r in range(sched.n_pes)]
        for k, buf in enumerate(sched.buffers) if buf.kind == "user"
    }


def _fold(h, sched: Schedule, collect_data: bool) -> None:
    ev = evaluate_schedule(
        sched, _config(sched.n_pes), collect_data=collect_data,
        inputs=_inputs(sched) if collect_data else None)
    h.update(ev.makespans.tobytes())
    h.update(repr(_stats_fields(ev.stats)).encode())
    if collect_data:
        h.update(ev._mem.tobytes())


def pair_digests(collective: str, algorithm: str) -> dict:
    out = {}
    for n_pes in PE_COUNTS:
        shapes = [s for _, s in _shapes_for(collective, algorithm, n_pes,
                                            12, 8)]
        for transport in ("onesided", "mailbox"):
            for data in (True, False):
                h = hashlib.sha256()
                for sched in shapes:
                    if transport == "mailbox":
                        sched = lower_to_mailbox(sched)
                    _fold(h, sched, data)
                key = (f"{collective}:{algorithm}/{n_pes}/{transport}/"
                       f"{'data' if data else 'nodata'}")
                out[key] = h.hexdigest()[:20]
    return out


# -- a vec session with team collectives (per-rank address maps) --------------


def _team_program(ctx):
    ctx.init()
    me, n = ctx.my_pe(), ctx.num_pes()
    nelems = 8
    src = ctx.malloc(8 * nelems)
    dest = ctx.malloc(8 * nelems)
    acc = ctx.malloc(8 * nelems)
    ctx.view(src, I64, nelems)[:] = np.arange(nelems) * 3 + me * 7 + 1
    ctx.view(dest, I64, nelems)[:] = -1
    ctx.view(acc, I64, nelems)[:] = -1
    ctx.barrier()
    members = tuple(range(0, n, 2))
    if me in members:
        team = Team(ctx, members)
        team.broadcast(dest, src, nelems, 1, 0, I64)
        team.allreduce(acc, src, nelems, 1, "sum", I64)
        team.barrier()
    ctx.reduce(dest, acc, nelems, 1, n - 1, "max", I64)
    ctx.scan(acc, src, nelems, 1, "sum", I64)
    ctx.barrier()
    out = (ctx.view(dest, I64, nelems).tobytes()
           + ctx.view(acc, I64, nelems).tobytes())
    ctx.close()
    return out


def vec_session_digest() -> str:
    with get_backend("vec").session(_config(8)) as session:
        outputs = session.run(_team_program)
        world = session.last_world
    h = hashlib.sha256()
    for out in outputs:
        h.update(out)
    h.update(repr([float(pe.clock).hex()
                   for pe in world.engine.pes]).encode())
    h.update(repr(_stats_fields(world.stats)).encode())
    return h.hexdigest()[:20]


# -- the group-order rule, directly -------------------------------------------


def order_schedules() -> list:
    """Groups at one ``(phase, slot)`` whose lanes share an injection
    link, one single-phase schedule per part of the group key.

    Four ranks, two per node: ranks 0 and 1 (node 0) each start one
    remote operation at slot 0 towards node 1 at the same instant, so
    the later reservation of node 0's link queues behind the earlier —
    which group the evaluator runs first sets both makespans (there is
    no trailing barrier to level them).  ``kind``: a put on rank 0 and
    a get on rank 1 (kind-name order runs the get first, although the
    put is on the lower rank); ``nelems``: two puts, the smaller on the
    higher rank; ``stride``: likewise; ``tag``: two sends, the lower tag
    on the higher rank, with the recvs that wait for them.
    """
    bufs = (Buffer("s", "scratch", 512, symmetric=True),
            Buffer("d", "scratch", 512, symmetric=True))
    s, d = 0, 1

    def sched(name, *adds):
        """One phase of no barrier; each of ``adds`` is a ``Rows.add``
        argument tuple."""
        rows = Rows()
        for args in adds:
            rows.add(*args)
        return Schedule.from_rows("test", name, 4, 8, rows,
                                  (skeleton(0, (), 0),), op="sum",
                                  buffers=bufs)

    # (rank, section, phase, op, a, b, nelems, stride, peer[, aux])
    return [
        sched("kind", (0, 0, 0, OP_PUT, (d, 0), (s, 0), 6, 1, 2),
              (1, 0, 0, OP_GET, (d, 64), (s, 64), 6, 1, 3)),
        sched("nelems", ([0, 1], 0, 0, OP_PUT, (d, [0, 64]), (s, [0, 64]),
                         [6, 2], 1, [2, 3])),
        sched("stride", ([0, 1], 0, 0, OP_PUT, (d, [0, 64]), (s, [0, 64]),
                         3, [2, 1], [2, 3])),
        sched("tag", ([0, 1], 0, 0, OP_SEND, (-1, 0), (s, [0, 64]), 4, 1,
                      [2, 3], [7, 5]),
              ([2, 3], 0, 0, OP_RECV, (d, [256, 320]), (-1, 0), 4, 1,
               [0, 1], [7, 5])),
    ]


def order_digest() -> dict:
    return {
        sched.algorithm: [float(t).hex() for t in
                          evaluate_schedule(sched, _config(4)).makespans]
        for sched in order_schedules()}


# -- tests --------------------------------------------------------------------


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("collective,algorithm", BUILTIN_ALGORITHMS)
def test_evaluator_digests_unchanged(collective, algorithm):
    golden = _golden()
    got = pair_digests(collective, algorithm)
    assert len(got) == len(PE_COUNTS) * 4
    wrong = [k for k, v in got.items() if golden[k] != v]
    assert not wrong, f"evaluator digests changed: {wrong}"


def test_vec_session_with_teams_unchanged():
    assert vec_session_digest() == _golden()["vec-session:teams"]


def test_group_order_is_kind_name_then_shape():
    """Makespans of :func:`order_schedules` equal the parent's to the bit."""
    assert order_digest() == _golden()["order:makespans"]


def test_malformed_schedules_fail_with_a_message():
    """What the table lets through — a name nothing declares, a recv no
    send feeds — the evaluator refuses by name, group heads not lanes."""
    bufs = (Buffer("s", "scratch", 64, symmetric=True),)

    def sched(*args, names=("s",)):
        """A 2-PE schedule of one row, ``Rows.add(*args)``, in a
        prologue of no barrier."""
        rows = Rows()
        rows.add(*args)
        return Schedule.from_rows("test", "bad", 2, 8, rows,
                                  (skeleton(0, (), 0),), buffers=bufs,
                                  names=names)

    with pytest.raises(SimulationError, match="rank 1 uses buffer 'ghost'"):
        evaluate_schedule(sched(1, 0, 0, OP_PUT, (0, 0), (1, 0), 1, 1, 0,
                                names=("s", "ghost")))
    with pytest.raises(SimulationError,
                       match=r"groups \[\(0, 0, 'recv', 2, 1\)\] cannot"):
        evaluate_schedule(sched(0, 0, 0, OP_RECV, (0, 0), (-1, 0), 2, 1, 1,
                                3))


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    table: dict = {}
    for pair in BUILTIN_ALGORITHMS:
        table.update(pair_digests(*pair))
    table["vec-session:teams"] = vec_session_digest()
    table["order:makespans"] = order_digest()
    GOLDEN_PATH.write_text(json.dumps(table, indent=0, sort_keys=True)
                           + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN_PATH}")
