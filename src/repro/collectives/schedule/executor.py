"""How a compiled :class:`~.ir.Schedule` executes: one plan, one step
interpreter, one driver.

**The plan.**  The first time a rank executes a schedule, its rows of
the step table (``Schedule.table``) are lowered into a
:class:`FlatPlan` (:func:`plan_of`, kept in ``Schedule.plans`` beside
the compile cache): walked section by section of the rank's barrier
skeleton — prologue, every stage (a pipeline round is one),
epilogue — they become one tuple of small op tuples in execution
order, buffers by index, barriers where the rows' phases put them and
stage-span boundaries as ops of their own; and the checks that do not
depend on the call (peers in range, counts, strides) are made there,
once.  :func:`execute_schedule` allocates and LIFO-frees the schedule's
scratch and private buffers around a run, exception-safe, and binds the
plan to the call (:func:`_bind`: absolute addresses, world peers, the
local steps' views, each barrier's member key, each reduction's charge
in ns).

**The interpreter** (:func:`_steps`), a generator over the bound ops
whose frame holds how far the rank has come, is the only step executor
on every backend that moves data step by step (the vec backend takes
the whole schedule through its ``schedule_evaluator`` seam instead).

**The driver** is the context's ``drive``, as for GUPs' update stream:
each PE runs its own ops, with a barrier at each barrier op (over the
rank's block where a ``Section.block`` partitions the group; a block of
one is no barrier).  On mp and under ``Machine(fast_paths=False)`` (the
differential oracle) a PE blocks there on its own process or thread.
On the simulator's direct-handoff engine ``Engine.drive`` runs it
instead, parking it at a step boundary — a barrier, an empty mailbox
receive, or before a step that would yield to an earlier PE — with the
generator's ``send`` as its continuation, which whichever thread would
wake it runs by the engine's own ordering rules ("How a collective
executes" in ``DESIGN.md``): the same clocks, bytes, trace events and
spans as a thread per PE, for about one thread switch per rank per
collective.

:class:`PreparedCollective` is the compiled form of one *call*: the
schedule plus the call's bound addresses, span attributes and stats
key — every collective is one, a composed one chained.  Blocking
collectives prepare and run immediately; non-blocking
ones prepare at initiation and run at ``wait()``; resilient wrappers
prepare again over each survivor group.  A context keeps the calls it
prepared, so a repeated call is the same object, and it keeps its bound
ops while its scratch and private buffers land where they did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from ...errors import CollectiveArgumentError
from ...sim.engine import PEState
from ..common import collective_span, validate_counts
from ..ops import apply_op, identity_of
from .ir import (
    OP_COPY,
    OP_FILL,
    OP_GET,
    OP_PUT,
    OP_REDUCE,
    OP_SEND,
    Schedule,
    step_span_bytes,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...runtime.context import XBRTime

__all__ = ["execute_schedule", "plan_of", "FlatPlan", "PreparedCollective"]

# Plan opcodes.  A step's buffer operands are indices into
# ``FlatPlan.names``; offsets are bytes, peers group ranks.
_BARRIER = 0  # (block,): the group ranks it meets, () for all
_PUT = 1      # (dst, dst_off, src, src_off, nelems, stride, peer)
_GET = 2      # (dst, dst_off, src, src_off, nelems, stride, peer)
_COPY = 3     # charged: (dst, dst_off, src, src_off, nelems, stride, skip_noop)
_MOVE = 4     # uncharged copy: (dst, dst_off, src, src_off, nelems, stride)
_REDUCE = 5   # (acc, acc_off, operand, operand_off, nelems, stride, charge_elems)
_FILL = 6     # (dst, dst_off, nelems, stride)
_SEND = 7     # (src, src_off, nelems, stride, peer, tag)
_RECV = 8     # (dst, dst_off, nelems, stride, peer, tag)
_OPEN = 9     # stage span begins: (index, attrs)
_CLOSE = 10   # stage span ends: ()

_CLOSE_OP = (_CLOSE,)

#: Views a context keeps for its local steps before it starts over.
_MAX_VIEWS = 256

_RUNNING, _RUNNABLE, _BLOCKED = (PEState.RUNNING, PEState.RUNNABLE,
                                 PEState.BLOCKED)


class FlatPlan:
    """One rank's program lowered for execution (see the module doc)."""

    __slots__ = ("ops", "names", "allocs")

    def __init__(self, sched: Schedule, rank: int):
        table = sched.table
        rows, parts = table.layout(rank)
        op, a, a_off, b, b_off, nelems, stride, peer, aux = \
            table.rows_of(rows)
        n = sched.n_pes
        # The call-independent checks, on the first step that fails one.
        bad = np.flatnonzero(
            (table.nelems[rows] < 0) | (table.stride[rows] < 1)
            | (table.peer[rows] < 0) | (table.peer[rows] >= n))
        if len(bad):
            k = int(bad[0])
            validate_counts(nelems[k], stride[k])
            raise CollectiveArgumentError(
                f"pe {peer[k]} out of range [0, {n})")
        index: dict[int, int] = {}

        def buf(i: int) -> int:
            return index.setdefault(i, len(index))

        def lower(k: int) -> tuple:
            code = op[k]
            if code == OP_PUT or code == OP_GET:
                return (_PUT if code == OP_PUT else _GET, buf(a[k]),
                        a_off[k], buf(b[k]), b_off[k], nelems[k], stride[k],
                        peer[k])
            if code == OP_COPY:
                if aux[k] & 2:
                    return (_COPY, buf(a[k]), a_off[k], buf(b[k]), b_off[k],
                            nelems[k], stride[k], bool(aux[k] & 1))
                return (_MOVE, buf(a[k]), a_off[k], buf(b[k]), b_off[k],
                        nelems[k], stride[k])
            if code == OP_REDUCE:
                return (_REDUCE, buf(a[k]), a_off[k], buf(b[k]), b_off[k],
                        nelems[k], stride[k], aux[k])
            if code == OP_FILL:
                return (_FILL, buf(a[k]), a_off[k], nelems[k], stride[k])
            if code == OP_SEND:
                return (_SEND, buf(b[k]), b_off[k], nelems[k], stride[k],
                        peer[k], aux[k])
            return (_RECV, buf(a[k]), a_off[k], nelems[k], stride[k],
                    peer[k], aux[k])

        # Pipeline blocks are already rounds of their own here, so every
        # backend replays the step order the linter checked.
        seq: list = []
        for sec, items in parts:
            if sec.kind == "stage":
                seq.append((_OPEN, sec.index, sec.attrs))
            # A block of one rank is no barrier.
            seq.extend((_BARRIER, sec.block) if k is None else lower(k)
                          for k in items
                          if k is not None or len(sec.block) != 1)
            if sec.kind == "stage":
                seq.append(_CLOSE_OP)
        #: The ops in execution order, with the stage-span boundaries
        #: that only a run recording spans binds.
        self.ops = tuple(seq)
        #: Buffer names the ops index into.
        self.names = tuple(table.names[i] for i in index)
        #: ``(name, is_scratch, nbytes)`` of the buffers this rank
        #: allocates, in declaration order (which makes the
        #: position-dependent scratch addresses match on every rank).
        self.allocs = tuple(
            (b.name, b.kind == "scratch", b.nbytes) for b in sched.buffers
            if b.kind != "user" and b.held_by(rank))


def plan_of(sched: Schedule, rank: int) -> FlatPlan:
    """``rank``'s flat plan for ``sched``, lowered on first use."""
    plan = sched.plans[rank]
    if plan is None:
        plan = sched.plans[rank] = FlatPlan(sched, rank)
    return plan


def _view(ctx, addr: int, nelems: int, stride: int,
          dtype: np.dtype) -> np.ndarray:
    """A view of this PE's memory, from the context's cache."""
    views = ctx._views
    key = (addr, nelems, stride, dtype)
    view = views.get(key)
    if view is None:
        if len(views) >= _MAX_VIEWS:
            views.clear()
        view = views[key] = ctx._memory.view(addr, dtype, nelems, stride)
    return view


def _bind(ctx, plan: FlatPlan, addrs: Mapping[str, int], members: tuple,
          dtype: np.dtype, traced: bool) -> tuple:
    """``plan``'s ops bound to one call's addresses, for the step loop:
    a put or get names its addresses and world peer (a charged copy is
    a put to this PE, or gone if it cannot move anything), a local step
    its views, a reduction its charge in ns, a barrier its team and —
    where the loop may skip ``BarrierController.enter`` (untraced, more
    than one member) — its member key."""
    base = [addrs[name] for name in plan.names]
    machine = ctx.machine
    barriers = machine.barriers if machine is not None else None
    cycle_ns = ctx.config.cycle_ns
    bound = []
    for op in plan.ops:
        code = op[0]
        if code >= _OPEN:  # _OPEN, _CLOSE
            if traced:
                bound.append(op)
        elif code == _PUT or code == _GET:
            _, d, d_off, s, s_off, nelems, stride, peer = op
            bound.append((code, base[d] + d_off, base[s] + s_off, nelems,
                          stride, members[peer]))
        elif code == _BARRIER:
            block = op[1]
            team = tuple(members[q] for q in block) if block else members
            key = barriers.members(team) if barriers and not traced else ()
            bound.append((code, team, key if len(key) > 1 else None))
        elif code == _REDUCE:
            _, a, a_off, b, b_off, nelems, stride, charge = op
            bound.append((code,
                          _view(ctx, base[a] + a_off, nelems, stride, dtype),
                          _view(ctx, base[b] + b_off, nelems, stride, dtype),
                          charge * 2.0 * cycle_ns))  # charge_elementwise's
        elif code == _COPY:  # a put to this PE
            _, d, d_off, s, s_off, nelems, stride, skip_noop = op
            dst, src = base[d] + d_off, base[s] + s_off
            if not (skip_noop and (nelems == 0 or dst == src)):
                bound.append((_PUT, dst, src, nelems, stride, ctx.rank))
        elif code == _MOVE:
            _, d, d_off, s, s_off, nelems, stride = op
            bound.append((code,
                          _view(ctx, base[d] + d_off, nelems, stride, dtype),
                          _view(ctx, base[s] + s_off, nelems, stride, dtype)))
        elif code == _FILL:
            _, d, d_off, nelems, stride = op
            dst = base[d] + d_off
            bound.append((code, _view(ctx, dst, nelems, stride, dtype), dst,
                          step_span_bytes(nelems, stride, dtype.itemsize)))
        else:  # _SEND, _RECV
            _, x, x_off, nelems, stride, peer, tag = op
            bound.append((code, base[x] + x_off, nelems, stride,
                          members[peer], tag))
    return tuple(bound)


def _steps(ctx, ops: tuple, dtype: np.dtype, reduce_op, traced: bool):
    """One rank's bound ops, as a generator: the step interpreter.

    Primed (``next``), its ``send`` is a step for
    :meth:`~repro.runtime.collective_api.CollectiveAPI.drive`.

    Sent ``None`` (mp, ``Machine(fast_paths=False)``), it runs to the
    end: each barrier is the context's ``barrier_team`` and sends and
    receives block in place.

    On the direct-handoff engine it is sent a ``limit``, the smallest
    clock among the other runnable PEs (``Engine.next_clock``), and runs
    until the rank parks: it yields ``RUNNABLE`` before a step that
    would yield to that PE — a checkpoint (a put or get of at least one
    element, a charged copy, a barrier arrival, a send or receive)
    reached with the clock beyond ``limit`` — and ``BLOCKED`` waiting at
    a barrier or receive; the next ``send`` brings the new limit and
    runs that step.  Such a step's fault checkpoint (``_require_active``)
    comes first, as in the context's own put and get.  ``limit`` moves
    only where a release or send wakes a PE.

    It yields ``RUNNING`` at its end, to every ``send`` from then on, and
    — if this is not the rank's own thread (``Engine.inline``) — before
    a send into a full queue, which may have to wait: the rank's own
    thread sends it.
    """
    limit = yield
    blocking = limit is None
    rank = ctx.rank
    # Under fault injection every step is a fault checkpoint, which the
    # context's own put/get make; a clean run goes straight to the
    # data-movement seam (its arguments were checked at lowering).
    faulty = ctx._faults is not None
    mover = ctx if faulty else ctx._transfer
    if not blocking:
        pe = ctx.pe
        machine = ctx.machine
        barriers, engine = machine.barriers, machine.engine
    in_stage = False
    try:
        for op in ops:
            code = op[0]
            if code == _PUT or code == _GET:
                _, dst, src, nelems, stride, peer = op
                if nelems and not blocking:
                    if faulty:
                        ctx._require_active()
                    if pe.clock > limit:
                        limit = yield _RUNNABLE
                (mover.put if code == _PUT else mover.get)(
                    dst, src, nelems, stride, peer, dtype)
            elif code == _BARRIER:
                if blocking:
                    ctx.barrier_team(op[1])
                    continue
                if faulty:
                    ctx._require_active()
                key = op[2]
                if key is None:
                    key = barriers.enter(rank, op[1])
                    if key is None:  # a barrier of one
                        continue
                if pe.clock > limit:
                    limit = yield _RUNNABLE
                inst, last = barriers.arrive(rank, key)
                if last:
                    pe.advance_to(barriers.release(inst, rank))
                    limit = engine.next_clock()
                else:
                    limit = yield _BLOCKED
                if inst.degraded or traced:  # else nothing to do
                    barriers.leave(rank, inst)
            elif code == _REDUCE:
                apply_op(reduce_op, op[1], op[2])
                if blocking:
                    ctx.compute(op[3])
                else:
                    pe.clock += op[3]  # what ``compute`` would do
            elif code == _MOVE:
                op[1][:] = op[2]
            elif code == _OPEN:
                ctx.spans.begin(rank, "stage", "stage",
                                {"index": op[1], **dict(op[2])})
                in_stage = True
            elif code == _CLOSE:
                ctx.spans.end(rank)
                in_stage = False
            elif code == _FILL:
                op[1][:] = identity_of(reduce_op, dtype)
                ctx.charge_stream(op[2], op[3], write=True)
            elif code == _SEND:
                _, src, nelems, stride, peer, tag = op
                if not blocking:
                    ctx._require_active()
                    if pe.clock > limit:
                        limit = yield _RUNNABLE
                    mailbox = machine.mailbox
                    if mailbox.depth(peer) >= mailbox.params.recv_depth \
                            and engine.inline:
                        limit = yield _RUNNING
                ctx.msg_send(src, nelems, stride, peer, tag=tag,
                             dtype=dtype)
                if not blocking:
                    limit = engine.next_clock()
            else:  # _RECV
                _, dst, nelems, stride, peer, tag = op
                if blocking:
                    ctx.msg_recv(dst, nelems, stride, peer, tag=tag,
                                 dtype=dtype)
                    continue
                ctx._require_active()
                if pe.clock > limit:
                    limit = yield _RUNNABLE
                ctx._msg_open("recv", nelems * dtype.itemsize, nelems,
                              stride, peer, tag)
                while not ctx._msg_take(dst, nelems, stride, peer, tag,
                                        dtype):
                    limit = yield _BLOCKED
    finally:
        if in_stage:  # a step raised inside a stage span
            ctx.spans.end(rank)
    while True:  # done: the rank's own thread runs on, whoever asks
        yield _RUNNING


def execute_schedule(ctx: "XBRTime", sched: Schedule, members: tuple,
                     me: int, bindings: Mapping[str, int], dtype: np.dtype,
                     traced: bool | None = None,
                     keeper: "PreparedCollective | None" = None) -> None:
    """Run ``sched``'s program for group rank ``me`` on this PE.

    ``bindings`` maps the schedule's *user* buffer names to concrete
    addresses; scratch and private buffers are allocated here (zero
    simulated cost, so allocation never perturbs timing) and freed LIFO
    on exit, including on exceptions — a resilient retry restarts from a
    clean scratch stack.  ``traced`` says whether spans are recorded
    (the context's ``spans.enabled`` if not given), and ``keeper`` keeps
    the bound ops from one run to the next (:class:`PreparedCollective`).

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
    kept = keeper._bound if keeper is not None else None
    if kept is not None and kept[0] is ctx:
        plan, traced = kept[1], kept[3]
    else:
        kept = None
        if traced is None:
            traced = ctx.spans.enabled
        if hook is None and ctx.schedule_transport == "mailbox":
            from .mailbox import lower_to_mailbox

            sched = lower_to_mailbox(sched)
        plan = plan_of(sched, me)
    allocs = plan.allocs
    allocated: list[int] = []
    # The allocations, then the frees, are one fault checkpoint each: a
    # second at the same clock does nothing.
    try:
        if allocs:
            ctx._require_active()
        for _name, is_scratch, nbytes in allocs:
            allocated.append((ctx._scratch if is_scratch
                              else ctx._private).alloc(nbytes))
        if kept is not None and kept[2] == allocated:
            ops = kept[4]
        else:
            addrs = dict(bindings)
            addrs.update(zip([name for name, _s, _n in allocs], allocated))
            if hook is not None:
                hook(sched, members, me, addrs, dtype)
                return
            ops = _bind(ctx, plan, addrs, members, dtype, traced)
            if keeper is not None:
                keeper._bound = (ctx, plan, allocated.copy(), traced, ops)
        steps = _steps(ctx, ops, dtype, sched.op, traced)
        next(steps)
        ctx.drive(steps.send)
    finally:
        if allocated:
            ctx._require_active()
            for (_name, is_scratch, _n), addr in zip(
                    reversed(allocs[:len(allocated)]), reversed(allocated)):
                (ctx._scratch if is_scratch else ctx._private).free(addr)


@dataclass
class PreparedCollective:
    """One compiled collective call, ready to execute.

    ``run`` counts the call in ``stats.collective_calls`` (on
    ``stats_rank`` only), opens the ``collective`` span and executes the
    schedule.  A prepared call run again — the context keeps its
    prepared calls (:func:`~repro.collectives.request.prepare`) — reuses
    its bound ops while the scratch and private addresses it allocates
    are the ones they were bound to.
    """

    name: str
    members: tuple
    me: int
    dtype: np.dtype
    schedule: Schedule
    attrs: Mapping = field(default_factory=dict)
    bindings: Mapping = field(default_factory=dict)
    stats_key: str = None  # type: ignore[assignment]
    stats_rank: int = None  # type: ignore[assignment]
    #: ``(ctx, plan, allocated addresses, traced, bound ops)`` of the
    #: last run.
    _bound: tuple = field(default=None, init=False, repr=False,
                          compare=False)

    def run(self, ctx: "XBRTime") -> None:
        if self.stats_key is not None and self.me == self.stats_rank:
            ctx.count_collective(self.stats_key)
        kept = self._bound
        # A context records spans for its whole life or not at all.
        traced = kept[3] if kept is not None and kept[0] is ctx \
            else ctx.spans.enabled
        if not traced:  # no span: skip the no-op context
            execute_schedule(ctx, self.schedule, self.members, self.me,
                             self.bindings, self.dtype, False, self)
            return
        with collective_span(ctx, self.name, self.members, **self.attrs):
            execute_schedule(ctx, self.schedule, self.members, self.me,
                             self.bindings, self.dtype, True, self)
