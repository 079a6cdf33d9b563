"""A repeated collective call is the same call, prepared and bound once.

On a direct-handoff machine a context keeps the calls it prepared
(``collectives.request.prepare``) and a kept call keeps its bound step
loop while its scratch and private buffers land where they did;
``Machine(fast_paths=False)`` prepares and binds every call afresh and
is the oracle.  Programs that repeat identical calls, interleave shapes,
rewrite their sources between calls, move the scratch stack under a
kept call, defer one call twice in a superstep, go through ``Team``,
``ShmemAPI`` and the ``i*`` initiators, run on the mailbox transport
(a send into a full queue included), with spans on and off and under a
fault plan must agree bit for bit on both machines: output bytes,
per-PE clocks, ``SimStats``, caches, the network, and with spans the
event stream and the span tree (``assert_drivers_agree``).
"""

from __future__ import annotations

import json
from itertools import accumulate

import numpy as np
import pytest

from repro.baselines.shmem import ShmemAPI
from repro.collectives import broadcast as broadcast_mod
from repro.collectives import request
from repro.collectives.nonblocking import ibroadcast, igather, ireduce, iscatter
from repro.collectives.request import COLLECTIVES, prepare
from repro.collectives.schedule import PreparedCollective
from repro.collectives.schedule.ir import (
    OP_RECV,
    OP_SEND,
    Buffer,
    Rows,
    Schedule,
    skeleton,
)
from repro.collectives.teams import Team
from repro.faults.plan import FaultPlan, crash
from repro.params import MailboxParams
from repro.runtime import Machine

from ..collectives.test_replay_equivalence import assert_drivers_agree
from ..conftest import small_config

I64 = np.dtype("int64")
#: int64 elements of each work buffer.
SIZE = 8 * 16
#: Shape 0 three times, then shape 1 interleaved with shape 0.
SEQUENCE = (0, 0, 0, 1, 0, 1, 1, 0)


def _layout(n: int, shape: int) -> tuple[tuple, tuple, int]:
    """Uniform per-PE counts (shape 0) or ragged ones with zeros."""
    msgs = (5,) * n if shape == 0 else tuple(i % 3 for i in range(n))
    disp = tuple(accumulate(msgs, initial=0))
    return msgs, disp[:-1], disp[-1]


def _call(ctx, name: str, algorithm: str | None, shape: int, dst: int,
          src: int) -> None:
    """One call of ``name`` in ``shape`` 0 or 1 (sizes, root, layout)."""
    n = ctx.num_pes()
    k, root = (5, 0) if shape == 0 else (3, n - 1)
    msgs, disp, total = _layout(n, shape)
    alg = {} if algorithm is None else {"algorithm": algorithm}
    if name == "broadcast":
        ctx.broadcast(dst, src, k, 1, root, "int64", **alg)
    elif name == "reduce":
        ctx.reduce(dst, src, k, 2, root, "sum", "int64", **alg)
    elif name == "allreduce":
        ctx.allreduce(dst, src, k, 1, "sum", "int64", **alg)
    elif name == "scan":
        ctx.scan(dst, src, k, 1, "sum", "int64", inclusive=shape == 0)
    elif name == "scatter":
        ctx.scatter(dst, src, list(msgs), list(disp), total, root, "int64")
    elif name == "gather":
        ctx.gather(dst, src, msgs, disp, total, root, "int64")
    elif name == "allgather":
        ctx.allgather(dst, src, msgs, disp, total, "int64", **alg)
    elif name == "alltoall":
        ctx.alltoall(dst, src, k, "int64")
    else:
        ctx.reduce_scatter(dst, src, msgs, disp, total, "sum", "int64",
                           **alg)


def _repeating(name: str, algorithm: str | None, sequence=SEQUENCE):
    """Calls of ``sequence``'s shapes, the sources rewritten before each
    and the scratch stack moved under the sixth; returns every output."""
    def body(ctx):
        ctx.init()
        me = ctx.my_pe()
        src = ctx.malloc(8 * SIZE)
        dst = ctx.malloc(8 * SIZE)
        seen = []
        for it, shape in enumerate(sequence):
            ctx.view(src, "int64", SIZE)[:] = \
                np.arange(SIZE) * (it + 1) + 1000 * me
            ctx.compute(17.0 * ((me + it) % 3))
            held = ctx.scratch_alloc(48) if it == 5 else None
            _call(ctx, name, algorithm, shape, dst, src)
            if held is not None:
                ctx.scratch_free(held)
            seen.append(ctx.view(dst, "int64", SIZE).tobytes())
        ctx.close()
        return seen

    return body


def _default(name: str) -> str | None:
    return (None if name in ("scan", "scatter", "gather", "alltoall")
            else COLLECTIVES[name].default)


@pytest.mark.parametrize("n_pes", range(1, 9))
@pytest.mark.parametrize("name", sorted(COLLECTIVES))
def test_every_collective_repeats_as_the_oracle(name, n_pes):
    assert_drivers_agree(n_pes, _repeating(name, _default(name)))


@pytest.mark.parametrize("name,algorithm", [
    (name, algorithm) for name, desc in sorted(COLLECTIVES.items())
    for algorithm in desc.compilers if desc.auto])
def test_every_algorithm_repeats_as_the_oracle(name, algorithm):
    assert_drivers_agree(6, _repeating(name, algorithm))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", ["allreduce", "gather", "reduce_scatter"])
def test_spans_on_and_off(name, trace):
    assert_drivers_agree(5, _repeating(name, _default(name)),
                         machine_kw={"trace": trace})


@pytest.mark.parametrize("n_pes", [3, 8])
def test_mailbox_transport(n_pes):
    for name in ("broadcast", "allreduce", "alltoall", "scatter"):
        assert_drivers_agree(n_pes, _repeating(name, _default(name)),
                             machine_kw={"transport": "mailbox"})


def test_a_superstep_defers_the_same_call_twice():
    def body(ctx):
        ctx.init()
        me, n = ctx.my_pe(), ctx.num_pes()
        a = ctx.malloc(8 * SIZE)
        b = ctx.malloc(8 * SIZE)
        seen = []
        for it in range(3):
            ctx.view(a, "int64", SIZE)[:] = np.arange(SIZE) + it + 10 * me
            with ctx.superstep():
                for _ in range(2):
                    ctx.allreduce(b, a, 4, 1, "sum", "int64")
                    ctx.broadcast(b + 64, a, 3, 1, it % n, "int64")
                ctx.alltoall(b + 256, a, 2, "int64")
            seen.append(ctx.view(b, "int64", SIZE).tobytes())
        ctx.close()
        return seen

    assert_drivers_agree(4, body)
    assert_drivers_agree(4, body, machine_kw={"trace": True})


def test_team_shmem_and_initiators_repeat():
    def body(ctx):
        ctx.init()
        me, n = ctx.my_pe(), ctx.num_pes()
        a = ctx.malloc(8 * SIZE)
        b = ctx.malloc(8 * SIZE)
        team = Team(ctx, range(me % 2, n, 2))
        shmem = ShmemAPI(ctx)
        msgs, disp, total = _layout(n, 1)
        seen = []
        for it in range(4):
            ctx.view(a, "int64", SIZE)[:] = np.arange(SIZE) * it + me
            team.allreduce(b, a, 3, 1, "max", "int64")
            team.broadcast(b + 64, a, 2, 1, it % team.num_pes(), "int64")
            shmem.broadcast64(b + 128, a, 3, 1)
            shmem.long_sum_to_all(b + 192, a, 2)
            shmem.fcollect64(b + 256, a, 2)
            shmem.collect64(b + 512, a, me % 3)
            handles = [ibroadcast(ctx, b + 768, a, 2, 1, 0, I64),
                       ireduce(ctx, b + 832, a, 2, 1, n - 1, "sum", I64),
                       iscatter(ctx, b + 896, a, msgs, disp, total, 1, I64),
                       igather(ctx, b + 960, a, msgs, disp, total, 0, I64)]
            for handle in handles:
                handle.wait()
            seen.append(ctx.view(b, "int64", SIZE).tobytes())
        ctx.close()
        return seen

    assert_drivers_agree(6, body)
    assert_drivers_agree(6, body, machine_kw={"trace": True})


def test_a_kept_call_meets_a_full_queue():
    """The kept, bound form of a schedule whose sends meet a one-slot
    queue while the receiver is busy: the send that has to wait is
    taken by the sender's own thread, every time."""
    rows = Rows()
    for i in range(3):
        rows.add(0, 0, 0, OP_SEND, b=(0, 8 * i), nelems=1, peer=1, aux=i)
        rows.add(1, 0, 0, OP_RECV, a=(0, 32 + 8 * i), nelems=1, peer=0,
                 aux=i)
    sched = Schedule.from_rows(
        "burst", "test", 2, 8, rows, (skeleton(0, (), 0),),
        buffers=(Buffer("buf", "user", 64, symmetric=True),))

    def body(ctx):
        ctx.init()
        buf = ctx.malloc(64)
        call = PreparedCollective("burst", ctx.world_group, ctx.rank, I64,
                                  sched, bindings={"buf": buf})
        seen = []
        for it in range(3):
            ctx.view(buf, "int64", 8)[:] = np.arange(8) + 10 * it
            if ctx.my_pe() == 1:
                for _ in range(3):
                    ctx.compute(90.0)
                    ctx.get(buf + 56, buf, 1, 1, 0, "int64")
            call.run(ctx)
            seen.append(ctx.view(buf, "int64", 8).tolist())
        ctx.close()
        return seen

    seen = assert_drivers_agree(2, body, mailbox=MailboxParams(recv_depth=1))
    assert [got[4:7] for got in seen["results"][1]] == [[0, 1, 2],
                                                        [10, 11, 12],
                                                        [20, 21, 22]]
    assert seen["stats"].mbx_stalls > 0


def test_repeats_under_a_fault_plan():
    """A crash mid-program: the survivors' resilient calls prepare again
    over each survivor group, and plain calls keep repeating before."""
    def body(ctx):
        ctx.init()
        me = ctx.my_pe()
        a = ctx.malloc(8 * SIZE)
        b = ctx.malloc(8 * SIZE)
        seen = []
        for it in range(3):
            ctx.view(a, "int64", SIZE)[:] = np.arange(SIZE) + it + me
            ctx.allreduce(b, a, 4, 1, "sum", "int64")
            seen.append(ctx.view(b, "int64", 4).tolist())
        ctx.compute(5e4)
        for it in range(3):
            res = ctx.resilient_allreduce(b, a, 4, 1, "sum", "int64")
            seen.append((ctx.view(b, "int64", 4).tolist(),
                         res.contributors, res.dead))
        ctx.close()
        return seen

    plan = FaultPlan(seed=3, rules=(crash(pe=2, at_ns=4e4),))
    seen = assert_drivers_agree(5, body, machine_kw={"faults": plan})
    assert seen["fired"], "no crash fired"


def test_a_replaced_compiler_compiles_the_next_call(monkeypatch):
    compiled = []
    real = broadcast_mod.compile_broadcast

    def counting(*args, **kwargs):
        compiled.append(args)
        return real(*args, **kwargs)

    def body(ctx):
        ctx.init()
        buf = ctx.malloc(64)
        ctx.broadcast(buf, buf, 4, 1, 0, "int64")
        ctx.barrier()
        if ctx.my_pe() == 0:
            monkeypatch.setattr(broadcast_mod, "compile_broadcast", counting)
        ctx.barrier()
        for _ in range(3):
            ctx.broadcast(buf, buf, 4, 1, 0, "int64")
        ctx.close()

    Machine(small_config(4)).run(body)
    # Each PE compiles its second call with the replacement, and keeps
    # that one for the third and fourth.
    assert len(compiled) == 4


@pytest.mark.parametrize("first_numpy", [False, True])
def test_numpy_and_plain_roots_record_the_same_spans(first_numpy):
    def traced(numpy_first: bool) -> tuple:
        def body(ctx):
            ctx.init()
            buf = ctx.malloc(64)
            for use_numpy in (numpy_first, not numpy_first):
                root = np.int64(1) if use_numpy else 1
                ctx.broadcast(buf, buf, 3, 1, root, "int64")
                ctx.gather(buf, buf, [np.int64(1)] * 4, list(range(4)), 4,
                           root, "int64")
            ctx.close()

        # Calls of one shape share their span attributes: start afresh.
        request._shape.cache_clear()
        machine = Machine(small_config(4), trace=True)
        machine.run(body)
        doc = machine.chrome_trace()
        roots = [event["args"]["root"] for event in doc["traceEvents"]
                 if event.get("cat") == "collective"]
        return json.dumps(doc, sort_keys=True), roots

    text, roots = traced(first_numpy)
    assert roots and all(type(root) is int for root in roots)
    assert text == traced(not first_numpy)[0]


def test_a_context_keeps_repeats_and_stays_within_its_cap():
    kept = []

    def body(ctx):
        ctx.init()
        buf = ctx.malloc(64)
        desc = COLLECTIVES["broadcast"]
        one = prepare(ctx, desc, buf, buf, 2, 1, 0, I64)
        kept.append(one is prepare(ctx, desc, buf, buf, np.int64(2), 1, 0,
                                   I64))
        largest = 0
        for addr in range(10_000):
            prepare(ctx, desc, buf + 8 * (addr % 4), buf, addr % 3 + 1,
                    1 + addr // 12, 0, I64)
            largest = max(largest, len(ctx._prepared or ()))
        ctx.close()
        return largest

    [largest] = Machine(small_config(1)).run(body)
    assert 0 < largest <= request._MAX_PREPARED
    [oracle] = Machine(small_config(1), fast_paths=False).run(body)
    assert oracle == 0
    assert kept == [True, False]
