"""Shared machinery for collective-correctness tests.

Each helper runs one collective on a fresh small machine and returns
per-PE observations that the tests compare against numpy oracles.
"""

from __future__ import annotations

import numpy as np

from repro.runtime import Machine

from ..conftest import small_config

__all__ = ["run_machine", "run_broadcast", "run_reduce", "run_scatter",
           "run_gather", "ring_schedule"]


def ring_schedule(n_pes, barriers=2, rank0_barriers=None):
    """A hand-built schedule over one 16-byte symmetric buffer ``buf``:
    every rank puts its second word into the first word of its
    right-hand neighbour, after the first of ``barriers`` barriers and
    before the rest.  ``rank0_barriers`` gives rank 0 a different count
    (a schedule the linter would reject)."""
    from repro.collectives.schedule.ir import (
        OP_PUT, Buffer, Rows, Schedule, skeleton)

    counts = [rank0_barriers if r == 0 and rank0_barriers is not None
              else barriers for r in range(n_pes)]
    rows = Rows()
    skeletons = []
    for r, k in enumerate(counts):
        # No barrier: the put is the whole prologue.  Else one barrier
        # of prologue, then a stage of the put and the other k - 1.
        rows.add(r, min(k, 1), min(k, 1), OP_PUT, (0, 0), (0, 8), 1, 1,
                 (r + 1) % n_pes)
        shape = skeleton(min(k, 1), [(0, ())] if k else (), 0)
        if k:
            prologue, stage, epilogue = shape.sections
            shape = shape._replace(
                sections=(prologue, stage._replace(nbars=k - 1), epilogue))
        skeletons.append(shape)
    return Schedule.from_rows(
        "ring", "test", n_pes, 8, rows, skeletons, skeleton_of=range(n_pes),
        buffers=(Buffer("buf", "user", 16, symmetric=True),))


def run_machine(n_pes, fn, args=None, **cfg_kw):
    machine = Machine(small_config(n_pes, **cfg_kw))
    return machine.run(fn, args)


def run_broadcast(n_pes, nelems, stride, root, dtype, data,
                  algorithm="binomial", **cfg_kw):
    """Returns each PE's dest contents after the broadcast."""
    def body(ctx):
        ctx.init()
        span = dtype.itemsize * ((max(nelems, 1) - 1) * stride + 1)
        dest = ctx.malloc(max(span, 16))
        src = ctx.private_malloc(max(span, 16))
        ctx.view(dest, dtype, nelems, stride)[:] = 0
        if ctx.my_pe() == root:
            ctx.view(src, dtype, nelems, stride)[:] = data
        from repro.collectives import COLLECTIVES, prepare

        prepare(ctx, COLLECTIVES["broadcast"], dest, src, nelems, stride,
                root, dtype, algorithm=algorithm).run(ctx)
        ctx.barrier()
        got = np.array(ctx.view(dest, dtype, nelems, stride), copy=True)
        ctx.close()
        return got

    return run_machine(n_pes, body, **cfg_kw)


def run_reduce(n_pes, nelems, stride, root, op, dtype, per_pe_data,
               algorithm="binomial", **cfg_kw):
    """Returns the root's dest contents (None on other PEs)."""
    def body(ctx):
        ctx.init()
        me = ctx.my_pe()
        span = dtype.itemsize * ((max(nelems, 1) - 1) * stride + 1)
        src = ctx.malloc(max(span, 16))
        dest = ctx.private_malloc(max(span, 16))
        ctx.view(src, dtype, nelems, stride)[:] = per_pe_data[me]
        from repro.collectives import COLLECTIVES, prepare

        prepare(ctx, COLLECTIVES["reduce"], dest, src, nelems, stride, root,
                op, dtype, algorithm=algorithm).run(ctx)
        got = None
        if me == root:
            got = np.array(ctx.view(dest, dtype, nelems, stride), copy=True)
        ctx.close()
        return got

    return run_machine(n_pes, body, **cfg_kw)


def run_scatter(n_pes, pe_msgs, pe_disp, root, dtype, src_data, **cfg_kw):
    """Returns each PE's received segment."""
    nelems = sum(pe_msgs)

    def body(ctx):
        ctx.init()
        me = ctx.my_pe()
        eb = dtype.itemsize
        src_span = max((max(pe_disp[i] + pe_msgs[i] for i in range(n_pes))
                        if n_pes else 1) * eb, 16)
        src = ctx.malloc(src_span)
        dest = ctx.private_malloc(max(max(pe_msgs, default=1), 1) * eb + 16)
        if me == root:
            ctx.view(src, dtype, len(src_data))[:] = src_data
        from repro.collectives import COLLECTIVES, prepare

        prepare(ctx, COLLECTIVES["scatter"], dest, src, pe_msgs, pe_disp,
                nelems, root, dtype).run(ctx)
        got = np.array(ctx.view(dest, dtype, pe_msgs[me]), copy=True)
        ctx.close()
        return got

    return run_machine(n_pes, body, **cfg_kw)


def run_gather(n_pes, pe_msgs, pe_disp, root, dtype, per_pe_data, **cfg_kw):
    """Returns the root's assembled dest (None on other PEs)."""
    nelems = sum(pe_msgs)
    dest_len = max(pe_disp[i] + pe_msgs[i] for i in range(n_pes)) if n_pes else 1

    def body(ctx):
        ctx.init()
        me = ctx.my_pe()
        eb = dtype.itemsize
        src = ctx.malloc(max(max(pe_msgs, default=1), 1) * eb + 16)
        dest = ctx.private_malloc(max(dest_len * eb, 16))
        ctx.view(src, dtype, pe_msgs[me])[:] = per_pe_data[me]
        from repro.collectives import COLLECTIVES, prepare

        prepare(ctx, COLLECTIVES["gather"], dest, src, pe_msgs, pe_disp,
                nelems, root, dtype).run(ctx)
        got = None
        if me == root:
            got = np.array(ctx.view(dest, dtype, dest_len), copy=True)
        ctx.close()
        return got

    return run_machine(n_pes, body, **cfg_kw)
