"""How a compiled :class:`~.ir.Schedule` executes: one plan, one step
interpreter, one driver.

**The plan.**  The first time a rank executes a schedule, its rows of
the step table (``Schedule.table``) are lowered into a
:class:`FlatPlan` (:func:`plan_of`, kept in ``Schedule.plans`` beside
the compile cache): walked section by section of the rank's barrier
skeleton — prologue, every stage (a :class:`~.ir.Pipeline` round is
one), epilogue — they become one tuple of small op tuples in execution
order, buffers by index, barriers where the rows' phases put them and
stage-span boundaries as ops of their own; and the checks that do not
depend on the call (peers in range, counts, strides) are made there,
once.  :func:`execute_schedule` binds a plan to one call
(:class:`_RankRun`: buffer addresses, dtype, the rank's context, a
program counter) and allocates and LIFO-frees the schedule's scratch
and private buffers around it, exception-safe.

**The interpreter.**  :func:`_advance` is the only step executor, on
every backend that moves data step by step (the vec backend takes the
whole schedule through its ``schedule_evaluator`` seam instead).  It
runs a rank's ops up to the next barrier, which it leaves to the
driver.

**The driver** (:func:`_drive`) is each PE running its own plan, with
a barrier at each barrier op (over the rank's block where a
``Section.block`` partitions the group; a block of one is no barrier).
On mp and under ``Machine(fast_paths=False)`` (the differential
oracle) a PE blocks there on its own process or thread.  On the
simulator's direct-handoff engine it parks at a step boundary instead
— a barrier, an empty mailbox receive, or before a step that would
yield to an earlier PE — leaving its :class:`_RankRun` as its
continuation (``Engine.park``), which whichever thread would wake it
runs by the engine's own ordering rules ("How a collective executes"
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

    __slots__ = ("ctx", "sched", "traced", "ops", "pc", "base", "members",
                 "dtype", "views", "in_stage", "phase", "inst")

    def __init__(self, ctx, sched: Schedule, plan: FlatPlan,
                 addrs: Mapping[str, int], members: tuple, dtype: np.dtype):
        self.ctx = ctx
        self.sched = sched
        #: Whether spans are recorded: stage boundaries are ops then.
        self.traced = ctx.spans.enabled
        self.ops = plan.traced_ops if self.traced else plan.ops
        #: Index into ``ops`` of the next one to run.
        self.pc = 0
        self.base = [addrs[name] for name in plan.names]
        self.members = members
        self.dtype = dtype
        self.views: dict = {}
        #: Whether a stage span is open.
        self.in_stage = False
        #: How far the barrier or receive at ``pc`` has come: 0 not
        #: begun, 1 its span open (a barrier yet to arrive), 2 waiting.
        self.phase = 0
        #: The key of the barrier a rank has entered, then the instance
        #: it arrived at.
        self.inst = None

    def view(self, addr: int, nelems: int, stride: int) -> np.ndarray:
        key = (addr, nelems, stride)
        view = self.views.get(key)
        if view is None:
            view = self.views[key] = self.ctx._memory.view(
                addr, self.dtype, nelems, stride)
        return view

    def __call__(self, limit: float, own: bool = False) -> PEState:
        """Run on from where this rank stands, on the direct-handoff
        engine, until it parks: ``RUNNABLE`` before a step that yields
        to a PE runnable at ``limit`` (``Engine.next_clock``),
        ``BLOCKED`` waiting at a barrier or receive.  ``RUNNING`` means
        its own thread runs on: the run is over or — if this is not that
        thread (``own``) — its next step is a send that might block on a
        full queue."""
        ctx = self.ctx
        pe = ctx.pe
        ops = self.ops
        while True:  # ``limit`` moves only where a release or send wakes a PE
            phase = self.phase
            if phase:  # it stands at a barrier or receive
                op = ops[self.pc]
            else:
                op = _advance(self, limit)
                if op is None:
                    return _RUNNING
            code = op[0]
            if code == _BARRIER:
                barriers = ctx.machine.barriers
                if not phase:
                    block = op[1]
                    if ctx._faults is not None:
                        ctx._require_active()  # the fault checkpoint
                    key = barriers.enter(ctx.rank, tuple(
                        self.members[q] for q in block) if block
                        else self.members)
                    if key is None:
                        self.pc += 1  # a barrier of one
                        continue
                    self.inst = key
                    phase = 1
                if phase == 1:
                    if pe.clock > limit:
                        self.phase = 1
                        return _RUNNABLE
                    inst, last = barriers.arrive(ctx.rank, self.inst)
                    self.inst = inst
                    if not last:
                        self.phase = 2
                        return _BLOCKED
                    pe.advance_to(barriers.release(inst, ctx.rank))
                    limit = ctx.machine.engine.next_clock()
                self.phase = 0
                if self.inst.degraded or self.traced:  # else nothing to do
                    barriers.leave(ctx.rank, self.inst)
            elif code == _SEND:
                _, s, s_off, nelems, stride, peer, tag = op
                ctx._require_active()
                if pe.clock > limit:
                    return _RUNNABLE
                mailbox = ctx.machine.mailbox
                if not own and mailbox.depth(self.members[peer]) >= \
                        mailbox.params.recv_depth:
                    return _RUNNING
                ctx.msg_send(self.base[s] + s_off, nelems, stride,
                             self.members[peer], tag=tag, dtype=self.dtype)
                limit = ctx.machine.engine.next_clock()
            elif code == _RECV:
                _, d, d_off, nelems, stride, peer, tag = op
                if not phase:
                    ctx._require_active()
                    if pe.clock > limit:
                        return _RUNNABLE
                    ctx._msg_open("recv", nelems * self.dtype.itemsize,
                                  nelems, stride, self.members[peer], tag)
                    self.phase = 2
                if not ctx._msg_take(self.base[d] + d_off, nelems, stride,
                                     self.members[peer], tag, self.dtype):
                    return _BLOCKED
                self.phase = 0
            else:  # a step that yields to an earlier PE
                return _RUNNABLE
            self.pc += 1


def _advance(run: _RankRun, limit: float | None = None) -> tuple | None:
    """Interpret ``run``'s ops from ``run.pc`` on: the step interpreter.

    Stops *at* the next barrier (the driver's business) or past the last
    op, and returns the op it stopped at (``None`` past the last).  With
    a ``limit`` — the smallest clock among the other runnable PEs — it
    also stops at a send or receive, and at a step where the transfer
    engine would yield to that PE: one that checkpoints (a put or get of
    at least one element, a charged copy) reached with the clock beyond
    ``limit``.  Such a step's fault checkpoint (``_require_active``)
    comes first, as in the context's own put and get; it does nothing
    when the step runs at the same clock later.
    """
    ctx = run.ctx
    ops = run.ops
    base = run.base
    members = run.members
    dtype = run.dtype
    reduction = run.sched.op
    # Under fault injection every step is a fault checkpoint, which the
    # context's own put/get make; a clean run goes straight to the
    # data-movement seam (its arguments were checked at lowering).
    faulty = ctx._faults is not None
    mover = ctx if faulty else ctx._transfer
    pe = ctx.pe if limit is not None else None
    pc = run.pc
    n = len(ops)
    while pc < n:
        op = ops[pc]
        code = op[0]
        if code == _PUT or code == _GET:
            _, d, d_off, s, s_off, nelems, stride, peer = op
            if pe is not None and nelems:
                if faulty:  # the fault checkpoint comes first (see below)
                    ctx._require_active()
                if pe.clock > limit:
                    break
            (mover.put if code == _PUT else mover.get)(
                base[d] + d_off, base[s] + s_off, nelems, stride,
                members[peer], dtype)
        elif code == _BARRIER:
            break
        elif code == _REDUCE:
            _, a, a_off, b, b_off, nelems, stride, charge = op
            apply_op(reduction, run.view(base[a] + a_off, nelems, stride),
                     run.view(base[b] + b_off, nelems, stride))
            charge_elementwise(ctx, charge)
        elif code == _MOVE:
            _, d, d_off, s, s_off, nelems, stride = op
            run.view(base[d] + d_off, nelems, stride)[:] = \
                run.view(base[s] + s_off, nelems, stride)
        elif code == _COPY:
            _, d, d_off, s, s_off, nelems, stride, skip_noop = op
            dst = base[d] + d_off
            src = base[s] + s_off
            if not (skip_noop and (nelems == 0 or dst == src)):
                if pe is not None and nelems:
                    if faulty:
                        ctx._require_active()
                    if pe.clock > limit:
                        break
                mover.put(dst, src, nelems, stride, ctx.rank, dtype)
        elif code == _OPEN:
            ctx.spans.begin(ctx.rank, "stage", "stage",
                            {"index": op[1], **dict(op[2])})
            run.in_stage = True
        elif code == _CLOSE:
            ctx.spans.end(ctx.rank)
            run.in_stage = False
        elif code == _FILL:
            _, d, d_off, nelems, stride = op
            dst = base[d] + d_off
            run.view(dst, nelems, stride)[:] = identity_of(reduction, dtype)
            ctx.charge_stream(dst, step_span_bytes(nelems, stride,
                                                   dtype.itemsize),
                              write=True)
        elif pe is not None:
            break  # a send or receive: the driver's, with a limit
        elif code == _SEND:
            _, s, s_off, nelems, stride, peer, tag = op
            ctx.msg_send(base[s] + s_off, nelems, stride, members[peer],
                         tag=tag, dtype=dtype)
        else:  # _RECV
            _, d, d_off, nelems, stride, peer, tag = op
            ctx.msg_recv(base[d] + d_off, nelems, stride, members[peer],
                         tag=tag, dtype=dtype)
        pc += 1
    run.pc = pc
    return op if pc < n else None


def _drive(run: _RankRun) -> None:
    """The driver: this PE runs its own plan to the end."""
    ctx = run.ctx
    engine = ctx.machine.engine if ctx.machine is not None else None
    try:
        if engine is not None and engine.direct_handoff:
            # Another thread may run it to the end while it is parked.
            while run.pc < len(run.ops) and (state := run(
                    engine.next_clock(), own=True)) is not _RUNNING:
                engine.park(run, state)
            return
        while (op := _advance(run)) is not None:
            block = op[1]
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
        with collective_span(ctx, self.name, self.members, **self.attrs):
            execute_schedule(ctx, self.schedule, self.members, self.me,
                             self.bindings, self.dtype)
