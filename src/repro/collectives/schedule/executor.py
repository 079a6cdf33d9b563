"""The single executor that runs any compiled :class:`~.ir.Schedule`.

``execute_schedule`` replays one rank's :class:`~.ir.RankProgram` over
the runtime context: it allocates the schedule's scratch/private
buffers (in declaration order, so the position-dependent symmetric
addresses match on every rank), runs the prologue, each stage inside a
``stage`` span, and the epilogue, then frees LIFO — exception-safe, so
a resilient retry restarts from a clean scratch stack exactly as the
legacy ``scratch_buffers`` context managers guaranteed.

:class:`PreparedCollective` is the compiled form of one *call*: the
schedule plus the call's bound addresses, span attributes and stats
key.  Blocking collectives prepare and run immediately; non-blocking
ones prepare at initiation and run at ``wait()``; resilient wrappers
prepare again over each survivor group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from ..common import charge_elementwise, collective_span, stage_span
from ..ops import apply_op, identity_of
from .ir import Schedule, step_span_bytes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...runtime.context import XBRTime

__all__ = ["execute_schedule", "PreparedCollective"]


def _run_steps(ctx: "XBRTime", steps, addrs, members, dtype, op, views) -> None:
    """Run a flat step tuple.  Hot path: dispatch on ``step.kind``."""
    rank = ctx.rank
    for step in steps:
        kind = step.kind
        if kind == "barrier":
            ctx.barrier_team(members)
        elif kind == "put":
            ctx.put(addrs[step.dst] + step.dst_off,
                    addrs[step.src] + step.src_off,
                    step.nelems, step.stride, members[step.peer], dtype)
        elif kind == "get":
            ctx.get(addrs[step.dst] + step.dst_off,
                    addrs[step.src] + step.src_off,
                    step.nelems, step.stride, members[step.peer], dtype)
        elif kind == "copy":
            dst = addrs[step.dst] + step.dst_off
            src = addrs[step.src] + step.src_off
            if step.charged:
                if step.skip_noop and (step.nelems == 0 or dst == src):
                    continue
                ctx.put(dst, src, step.nelems, step.stride, rank, dtype)
            else:
                _view(ctx, views, dst, step.nelems, step.stride, dtype)[:] = \
                    _view(ctx, views, src, step.nelems, step.stride, dtype)
        elif kind == "reduce":
            acc = _view(ctx, views, addrs[step.acc] + step.acc_off,
                        step.nelems, step.stride, dtype)
            operand = _view(ctx, views, addrs[step.operand] + step.operand_off,
                            step.nelems, step.stride, dtype)
            apply_op(op, acc, operand)
            charge_elementwise(ctx, step.charge_elems)
        elif kind == "fill":
            dst = addrs[step.dst] + step.dst_off
            _view(ctx, views, dst, step.nelems, step.stride, dtype)[:] = \
                identity_of(op, dtype)
            ctx.charge_stream(dst, step_span_bytes(step.nelems, step.stride,
                                                   dtype.itemsize), write=True)
        elif kind == "send":
            ctx.msg_send(addrs[step.src] + step.src_off,
                         step.nelems, step.stride, members[step.peer],
                         tag=step.tag, dtype=dtype)
        elif kind == "recv":
            ctx.msg_recv(addrs[step.dst] + step.dst_off,
                         step.nelems, step.stride, members[step.peer],
                         tag=step.tag, dtype=dtype)
        else:  # pragma: no cover - compiler bug guard
            raise AssertionError(f"unknown step kind {kind!r}")


def _view(ctx: "XBRTime", views: dict, addr: int, nelems: int, stride: int,
          dtype: np.dtype) -> np.ndarray:
    key = (addr, nelems, stride)
    view = views.get(key)
    if view is None:
        view = views[key] = ctx.view(addr, dtype, nelems, stride)
    return view


def execute_schedule(ctx: "XBRTime", sched: Schedule,
                     members: tuple, me: int,
                     bindings: Mapping[str, int], dtype: np.dtype) -> None:
    """Run ``sched``'s program for group rank ``me`` on this PE.

    ``bindings`` maps the schedule's *user* buffer names to concrete
    addresses; scratch and private buffers are allocated here (zero
    simulated cost, so allocation never perturbs timing) and freed LIFO
    on exit, including on exceptions.

    A context may take over whole-schedule execution through its
    ``schedule_evaluator`` seam (the vec backend's batch rendezvous —
    see :mod:`repro.backends.vec`): it is handed the bound addresses of
    every buffer and does the data movement and time accounting;
    allocation and the LIFO release stay here.

    A context whose ``schedule_transport`` is ``"mailbox"`` gets the
    schedule lowered onto matched send/recv pairs first (see
    :mod:`.mailbox`) — every collective, blocking or resilient or
    fused, inherits the two-sided transport with no per-algorithm code.
    """
    hook = ctx.schedule_evaluator
    if hook is None and ctx.schedule_transport == "mailbox":
        from .mailbox import lower_to_mailbox

        sched = lower_to_mailbox(sched)
    addrs: dict[str, int] = dict(bindings)
    allocated: list[tuple[str, int]] = []
    try:
        for buf in sched.buffers:
            if buf.kind == "user" or not buf.held_by(me):
                continue
            if buf.kind == "scratch":
                addr = ctx.scratch_alloc(buf.nbytes)
            else:
                addr = ctx.private_malloc(buf.nbytes)
            addrs[buf.name] = addr
            allocated.append((buf.kind, addr))
        if hook is not None:
            hook(sched, tuple(members), me, addrs, dtype)
            return
        prog = sched.program(me)
        views: dict = {}
        op = sched.op
        _run_steps(ctx, prog.prologue, addrs, members, dtype, op, views)
        # Pipeline blocks lower to their barrier-separated rounds here,
        # so sim and mp replay the exact step order the linter checked.
        for stage in prog.lowered_stages():
            with stage_span(ctx, stage.index, **stage.span_attrs()):
                _run_steps(ctx, stage.steps, addrs, members, dtype, op, views)
        _run_steps(ctx, prog.epilogue, addrs, members, dtype, op, views)
    finally:
        for bkind, addr in reversed(allocated):
            if bkind == "scratch":
                ctx.scratch_free(addr)
            else:
                ctx.private_free(addr)


@dataclass
class PreparedCollective:
    """One compiled collective call, ready to execute.

    ``run`` performs exactly what the legacy blocking front-ends did
    after validation: count the call in ``stats.collective_calls`` (on
    ``stats_rank`` only), open the ``collective`` span, execute.  The
    optional ``body`` escape hatch covers composed collectives
    (hierarchical two-level trees) that orchestrate several schedules
    inside one outer span.
    """

    name: str
    members: tuple
    me: int
    dtype: np.dtype
    attrs: Mapping = field(default_factory=dict)
    schedule: Schedule = None  # type: ignore[assignment]
    bindings: Mapping = field(default_factory=dict)
    stats_key: str = None  # type: ignore[assignment]
    stats_rank: int = None  # type: ignore[assignment]
    body: Callable = None  # type: ignore[assignment]

    def run(self, ctx: "XBRTime") -> None:
        if self.stats_key is not None and self.me == self.stats_rank:
            ctx.count_collective(self.stats_key)
        with collective_span(ctx, self.name, self.members, **self.attrs):
            if self.schedule is not None:
                execute_schedule(ctx, self.schedule, self.members, self.me,
                                 self.bindings, self.dtype)
            else:
                self.body(ctx)
