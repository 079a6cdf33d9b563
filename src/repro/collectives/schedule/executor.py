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
once.  :func:`execute_schedule` binds a plan to one call
(:class:`_RankRun`: buffer addresses, dtype, the rank's context, a
program counter) and allocates and LIFO-frees the schedule's scratch
and private buffers around it, exception-safe.

**The interpreter.**  Calling a :class:`_RankRun` is the only step
executor, on every backend that moves data step by step (the vec
backend takes the whole schedule through its ``schedule_evaluator``
seam instead): one loop that runs a rank's ops from its program
counter.  Blocking, it stops at each barrier, which it leaves to the
driver; on the direct-handoff engine it also meets barriers itself and
stops wherever the rank must park.

**The driver** (:func:`_drive`) is each PE running its own plan, with
a barrier at each barrier op (over the rank's block where a
``Section.block`` partitions the group; a block of one is no barrier).
On mp and under ``Machine(fast_paths=False)`` (the differential
oracle) a PE blocks there on its own process or thread.  On the
simulator's direct-handoff engine ``Engine.drive`` runs it instead,
parking it at a step boundary — a barrier, an empty mailbox receive,
or before a step that would yield to an earlier PE — with its
:class:`_RankRun` as its continuation, which whichever thread would
wake it runs by the engine's own ordering rules ("How a collective executes"
in ``DESIGN.md``): the same clocks, bytes, trace events and spans as a
thread per PE, for about one thread switch per rank per collective.

:class:`PreparedCollective` is the compiled form of one *call*: the
schedule plus the call's bound addresses, span attributes and stats
key — every collective is one, a composed one chained.  Blocking
collectives prepare and run immediately; non-blocking
ones prepare at initiation and run at ``wait()``; resilient wrappers
prepare again over each survivor group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

import numpy as np

from ...errors import CollectiveArgumentError
from ...sim.engine import PEState
from ..common import charge_elementwise, collective_span, validate_counts
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

    __slots__ = ("ops", "traced_ops", "names", "allocs")

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
        traced: list = []
        for sec, items in parts:
            if sec.kind == "stage":
                traced.append((_OPEN, sec.index, sec.attrs))
            # A block of one rank is no barrier.
            traced.extend((_BARRIER, sec.block) if k is None else lower(k)
                          for k in items
                          if k is not None or len(sec.block) != 1)
            if sec.kind == "stage":
                traced.append(_CLOSE_OP)
        #: The ops in execution order, with the stage-span boundaries —
        #: what a run that records spans interprets.
        self.traced_ops = tuple(traced)
        #: The steps alone, for every other run.
        self.ops = tuple(op for op in traced if op[0] < _OPEN)
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


class _RankRun:
    """One rank's plan bound to one call: where its buffers are, what
    it moves, whose context it runs on and how far it has come.  Called,
    it is the rank's continuation (see the module doc)."""

    __slots__ = ("ctx", "sched", "traced", "ops", "pc", "members", "dtype",
                 "in_stage", "phase", "inst", "env")

    def __init__(self, ctx, sched: Schedule, plan: FlatPlan,
                 addrs: Mapping[str, int], members: tuple, dtype: np.dtype):
        self.ctx = ctx
        self.sched = sched
        #: Whether spans are recorded: stage boundaries are ops then.
        self.traced = ctx.spans.enabled
        self.ops = plan.traced_ops if self.traced else plan.ops
        #: Index into ``ops`` of the next one to run.
        self.pc = 0
        self.members = members
        self.dtype = dtype
        #: Whether a stage span is open.
        self.in_stage = False
        #: How far the barrier or receive at ``pc`` has come: 0 not
        #: begun, 1 its span open (a barrier yet to arrive), 2 waiting.
        self.phase = 0
        #: The key of the barrier a rank has entered, then the instance
        #: it arrived at.
        self.inst = None
        # Under fault injection every step is a fault checkpoint, which
        # the context's own put/get make; a clean run goes straight to the
        # data-movement seam (its arguments were checked at lowering).
        faulty = ctx._faults is not None
        #: What every call of the step loop reads, unpacked in one go:
        #: the buffers' addresses among it.
        self.env = (ctx, self.ops, len(self.ops),
                    [addrs[name] for name in plan.names], members, dtype,
                    ctx if faulty else ctx._transfer, faulty)

    def view(self, addr: int, nelems: int, stride: int) -> np.ndarray:
        """A view of this PE's memory, from the context's cache."""
        views = self.ctx._views
        key = (addr, nelems, stride, self.dtype)
        view = views.get(key)
        if view is None:
            if len(views) >= _MAX_VIEWS:
                views.clear()
            view = views[key] = self.ctx._memory.view(
                addr, self.dtype, nelems, stride)
        return view

    def __call__(self, limit: float | None = None) -> PEState:
        """Run this rank's ops on from ``pc``: the step interpreter.

        Blocking (no ``limit``: mp, ``Machine(fast_paths=False)``), it
        stops at the next barrier, ``BLOCKED`` with ``pc`` on it for the
        driver to meet, and sends and receives block in place.

        On the direct-handoff engine ``limit`` is the smallest clock
        among the other runnable PEs (``Engine.next_clock``), and the
        rank runs until it parks: ``RUNNABLE`` before a step that would
        yield to that PE — a checkpoint (a put or get of at least one
        element, a charged copy, a barrier arrival, a send or receive)
        reached with the clock beyond ``limit`` — and ``BLOCKED``
        waiting at a barrier or receive.  Such a step's fault checkpoint
        (``_require_active``) comes first, as in the context's own put
        and get; it does nothing when the step runs at the same clock
        later.  ``limit`` moves only where a release or send wakes a PE.

        ``RUNNING`` means the rank's own thread runs on: the run is over
        or — if this is not that thread (``Engine.inline``) — its next
        step is a send into a full queue, which may have to wait.
        """
        ctx, ops, n, base, members, dtype, mover, faulty = self.env
        blocking = limit is None
        pe = None if blocking else ctx.pe
        for pc in range(self.pc, n):
            op = ops[pc]
            code = op[0]
            if code == _PUT or code == _GET:
                _, d, d_off, s, s_off, nelems, stride, peer = op
                if nelems and not blocking:
                    if faulty:
                        ctx._require_active()
                    if pe.clock > limit:
                        state = _RUNNABLE
                        break
                (mover.put if code == _PUT else mover.get)(
                    base[d] + d_off, base[s] + s_off, nelems, stride,
                    members[peer], dtype)
            elif code == _BARRIER:
                if blocking:  # the driver's
                    state = _BLOCKED
                    break
                barriers = ctx.machine.barriers
                phase = self.phase
                if not phase:
                    if faulty:
                        ctx._require_active()
                    block = op[1]
                    key = barriers.enter(ctx.rank, tuple(
                        members[q] for q in block) if block else members)
                    if key is None:  # a barrier of one
                        continue
                    self.inst = key
                    phase = 1
                if phase == 1:
                    if pe.clock > limit:
                        self.phase = 1
                        state = _RUNNABLE
                        break
                    inst, last = barriers.arrive(ctx.rank, self.inst)
                    self.inst = inst
                    if not last:
                        self.phase = 2
                        state = _BLOCKED
                        break
                    pe.advance_to(barriers.release(inst, ctx.rank))
                    limit = ctx.machine.engine.next_clock()
                self.phase = 0
                if self.inst.degraded or self.traced:  # else nothing to do
                    barriers.leave(ctx.rank, self.inst)
            elif code == _REDUCE:
                _, a, a_off, b, b_off, nelems, stride, charge = op
                apply_op(self.sched.op, self.view(base[a] + a_off, nelems,
                                                  stride),
                         self.view(base[b] + b_off, nelems, stride))
                charge_elementwise(ctx, charge)
            elif code == _COPY:
                _, d, d_off, s, s_off, nelems, stride, skip_noop = op
                dst = base[d] + d_off
                src = base[s] + s_off
                if not (skip_noop and (nelems == 0 or dst == src)):
                    if nelems and not blocking:
                        if faulty:
                            ctx._require_active()
                        if pe.clock > limit:
                            state = _RUNNABLE
                            break
                    mover.put(dst, src, nelems, stride, ctx.rank, dtype)
            elif code == _MOVE:
                _, d, d_off, s, s_off, nelems, stride = op
                self.view(base[d] + d_off, nelems, stride)[:] = \
                    self.view(base[s] + s_off, nelems, stride)
            elif code == _OPEN:
                ctx.spans.begin(ctx.rank, "stage", "stage",
                                {"index": op[1], **dict(op[2])})
                self.in_stage = True
            elif code == _CLOSE:
                ctx.spans.end(ctx.rank)
                self.in_stage = False
            elif code == _FILL:
                _, d, d_off, nelems, stride = op
                dst = base[d] + d_off
                self.view(dst, nelems, stride)[:] = identity_of(self.sched.op,
                                                                dtype)
                ctx.charge_stream(dst, step_span_bytes(nelems, stride,
                                                       dtype.itemsize),
                                  write=True)
            elif code == _SEND:
                _, s, s_off, nelems, stride, peer, tag = op
                if not blocking:
                    ctx._require_active()
                    if pe.clock > limit:
                        state = _RUNNABLE
                        break
                    machine = ctx.machine
                    mailbox = machine.mailbox
                    if mailbox.depth(members[peer]) >= \
                            mailbox.params.recv_depth and \
                            machine.engine.inline:
                        state = _RUNNING
                        break
                ctx.msg_send(base[s] + s_off, nelems, stride, members[peer],
                             tag=tag, dtype=dtype)
                if not blocking:
                    limit = ctx.machine.engine.next_clock()
            else:  # _RECV
                _, d, d_off, nelems, stride, peer, tag = op
                if blocking:
                    ctx.msg_recv(base[d] + d_off, nelems, stride,
                                 members[peer], tag=tag, dtype=dtype)
                else:
                    if not self.phase:
                        ctx._require_active()
                        if pe.clock > limit:
                            state = _RUNNABLE
                            break
                        ctx._msg_open("recv", nelems * dtype.itemsize,
                                      nelems, stride, members[peer], tag)
                        self.phase = 2
                    if not ctx._msg_take(base[d] + d_off, nelems, stride,
                                         members[peer], tag, dtype):
                        state = _BLOCKED
                        break
                    self.phase = 0
        else:
            pc = n
            state = _RUNNING
        self.pc = pc
        return state


def _drive(run: _RankRun) -> None:
    """The driver: this PE runs its own plan to the end."""
    ctx = run.ctx
    engine = ctx.machine.engine if ctx.machine is not None else None
    try:
        if engine is not None and engine.direct_handoff:
            # Another thread may run it on, even to the end, while it is
            # parked.  A bound method is the cheapest thing to call.
            engine.drive(run.__call__)
            return
        while run() is _BLOCKED:  # at a barrier
            block = run.ops[run.pc][1]
            ctx.barrier_team(tuple(run.members[q] for q in block)
                             if block else run.members)
            run.pc += 1
    finally:
        if run.in_stage:  # a step raised inside a stage span
            ctx.spans.end(ctx.rank)


def execute_schedule(ctx: "XBRTime", sched: Schedule,
                     members: tuple, me: int,
                     bindings: Mapping[str, int], dtype: np.dtype) -> None:
    """Run ``sched``'s program for group rank ``me`` on this PE.

    ``bindings`` maps the schedule's *user* buffer names to concrete
    addresses; scratch and private buffers are allocated here (zero
    simulated cost, so allocation never perturbs timing) and freed LIFO
    on exit, including on exceptions — a resilient retry restarts from a
    clean scratch stack.

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
    plan = plan_of(sched, me)
    addrs: dict[str, int] = dict(bindings)
    allocated: list[tuple[bool, int]] = []
    try:
        for name, is_scratch, nbytes in plan.allocs:
            if is_scratch:
                addr = ctx.scratch_alloc(nbytes)
            else:
                addr = ctx.private_malloc(nbytes)
            addrs[name] = addr
            allocated.append((is_scratch, addr))
        if hook is not None:
            hook(sched, members, me, addrs, dtype)
            return
        _drive(_RankRun(ctx, sched, plan, addrs, members, dtype))
    finally:
        for is_scratch, addr in reversed(allocated):
            if is_scratch:
                ctx.scratch_free(addr)
            else:
                ctx.private_free(addr)


@dataclass
class PreparedCollective:
    """One compiled collective call, ready to execute.

    ``run`` performs exactly what the legacy blocking front-ends did
    after validation: count the call in ``stats.collective_calls`` (on
    ``stats_rank`` only), open the ``collective`` span, execute the
    schedule.
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

    def run(self, ctx: "XBRTime") -> None:
        if self.stats_key is not None and self.me == self.stats_rank:
            ctx.count_collective(self.stats_key)
        if not ctx.spans.enabled:  # no span: skip the no-op context
            execute_schedule(ctx, self.schedule, self.members, self.me,
                             self.bindings, self.dtype)
            return
        with collective_span(ctx, self.name, self.members, **self.attrs):
            execute_schedule(ctx, self.schedule, self.members, self.me,
                             self.bindings, self.dtype)
