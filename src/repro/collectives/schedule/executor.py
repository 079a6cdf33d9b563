"""How a compiled :class:`~.ir.Schedule` executes: one plan, one step
interpreter, two drivers.

**The plan.**  The first time a rank executes a schedule, its rows of
the step table (``Schedule.table``) are lowered into a
:class:`FlatPlan` (:func:`plan_of`, kept in ``Schedule.plans`` beside
the compile cache): walked section by section of the rank's barrier
skeleton — prologue, every stage (a :class:`~.ir.Pipeline` round is
one), epilogue — they become one tuple of small op tuples in execution
order, buffers by index, barriers where the rows' phases put them and
stage-span boundaries as ops of their own, the positions of the first
and last barrier noted; and the checks that do not depend on the call
(peers in range, counts, strides) are made there, once.
:func:`execute_schedule` binds a plan to one call (:class:`_RankRun`:
buffer addresses, dtype, the rank's context, a program counter) and
allocates and LIFO-frees the schedule's scratch and private buffers
around it, exception-safe.

**The interpreter.**  :func:`_advance` is the only step executor, on
every backend that moves data step by step (the vec backend takes the
whole schedule through its ``schedule_evaluator`` seam instead).  It
runs a rank's ops up to the next barrier, which it leaves to the
driver.

**The per-rank driver** (:func:`_drive`) is each PE running its own
plan on its own thread or process, with ``ctx.barrier_team`` at the
barriers (over the rank's block where a ``Section.block`` partitions
the group; a block of one is no barrier).  It serves mp, teams,
partitioned schedules, fault-injection runs, the mailbox transport,
traced runs and the reference scheduler (``fast_paths=False``).

**The replay driver** (:func:`_replay`) serves the simulator when the
schedule's group is the whole machine.  Every rank runs up to its first
barrier, arrives there as usual and parks; the last to arrive releases
the barrier and then interprets *every* rank's steps, on its own
thread, through the same :class:`~repro.runtime.transfer.TransferEngine`
and :class:`~repro.runtime.barrier.BarrierController` calls, up to the
release of the schedule's last barrier, where it hands the machine
back: the rank that released runs on, the others are runnable at the
release time.  Between those two barriers every PE of the machine is
inside this schedule, so the window is closed — nothing else can run,
wake or be woken — and the replay can order the ranks exactly as the
engine would: a rank runs until a step at which the transfer engine or
the barrier would checkpoint (a put or get of at least one element, a
charged copy, a barrier arrival) *and* another runnable rank's clock is
strictly smaller; then the smallest ``(clock, rank)`` runs.  Every
clock, cache line, link reservation and byte is therefore what the
per-PE threads produce, for one thread switch per rank per collective
instead of one per rank per stage.  Which driver runs is read off the
call (group, partition, injector, transport, engine, tracing); there is
no option, and ``Machine(fast_paths=False)`` is the differential oracle.

:class:`PreparedCollective` is the compiled form of one *call*: the
schedule plus the call's bound addresses, span attributes and stats
key — every collective is one, a composed one chained.  Blocking
collectives prepare and run immediately; non-blocking
ones prepare at initiation and run at ``wait()``; resilient wrappers
prepare again over each survivor group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush, heappushpop
from typing import TYPE_CHECKING, Mapping

import numpy as np

from ...errors import CollectiveArgumentError
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


class FlatPlan:
    """One rank's program lowered for execution (see the module doc)."""

    __slots__ = ("ops", "traced_ops", "names", "allocs", "n_barriers",
                 "first_barrier", "last_barrier")

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
        #: The steps alone, for every other run; the barrier positions
        #: below index this tuple.
        self.ops = ops = tuple(op for op in traced if op[0] < _OPEN)
        #: Buffer names the ops index into.
        self.names = tuple(table.names[i] for i in index)
        #: ``(name, is_scratch, nbytes)`` of the buffers this rank
        #: allocates, in declaration order (which makes the
        #: position-dependent scratch addresses match on every rank).
        self.allocs = tuple(
            (b.name, b.kind == "scratch", b.nbytes) for b in sched.buffers
            if b.kind != "user" and b.held_by(rank))
        barriers = [pc for pc, op in enumerate(ops) if op[0] == _BARRIER]
        self.n_barriers = len(barriers)
        self.first_barrier = barriers[0] if barriers else -1
        self.last_barrier = barriers[-1] if barriers else -1


def plan_of(sched: Schedule, rank: int) -> FlatPlan:
    """``rank``'s flat plan for ``sched``, lowered on first use."""
    plan = sched.plans[rank]
    if plan is None:
        plan = sched.plans[rank] = FlatPlan(sched, rank)
    return plan


class _RankRun:
    """One rank's plan bound to one call: where its buffers are, what
    it moves, whose context it runs on and how far it has come."""

    __slots__ = ("ctx", "sched", "plan", "ops", "pc", "base", "members",
                 "dtype", "views", "in_stage", "error")

    def __init__(self, ctx, sched: Schedule, plan: FlatPlan,
                 addrs: Mapping[str, int], members: tuple, dtype: np.dtype):
        self.ctx = ctx
        self.sched = sched
        self.plan = plan
        self.ops = plan.traced_ops if ctx.spans.enabled else plan.ops
        #: Index into ``ops`` of the next one to run.
        self.pc = 0
        self.base = [addrs[name] for name in plan.names]
        self.members = members
        self.dtype = dtype
        self.views: dict = {}
        #: Whether a stage span is open.
        self.in_stage = False
        #: What a step of this rank raised while another rank's thread
        #: was replaying it; re-raised on the rank's own thread.
        self.error: BaseException | None = None

    def view(self, addr: int, nelems: int, stride: int) -> np.ndarray:
        key = (addr, nelems, stride)
        view = self.views.get(key)
        if view is None:
            view = self.views[key] = self.ctx._memory.view(
                addr, self.dtype, nelems, stride)
        return view


def _advance(run: _RankRun, limit: float | None = None) -> None:
    """Interpret ``run``'s ops from ``run.pc`` on: the step interpreter.

    Stops *at* the next barrier (the driver's business) or past the last
    op.  With a ``limit`` — the smallest clock among the other runnable
    ranks, when one thread is replaying them all — it also stops at a
    step where the transfer engine would yield to that rank: one that
    checkpoints (a put or get of at least one element, a charged copy)
    reached with the clock beyond ``limit``.
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
    mover = ctx._transfer if ctx._faults is None else ctx
    pe = ctx.pe if limit is not None else None
    pc = run.pc
    n = len(ops)
    while pc < n:
        op = ops[pc]
        code = op[0]
        if code == _PUT:
            _, d, d_off, s, s_off, nelems, stride, peer = op
            if pe is not None and nelems and pe.clock > limit:
                break
            mover.put(base[d] + d_off, base[s] + s_off, nelems, stride,
                      members[peer], dtype)
        elif code == _GET:
            _, d, d_off, s, s_off, nelems, stride, peer = op
            if pe is not None and nelems and pe.clock > limit:
                break
            mover.get(base[d] + d_off, base[s] + s_off, nelems, stride,
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
                if pe is not None and nelems and pe.clock > limit:
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


class _Rendezvous:
    """Where the ranks of one group leave what the last of them needs to
    run a schedule for all: the vec backend's batch evaluation, the
    simulator's replay."""

    __slots__ = ("sched", "dtype", "slots", "count", "same")

    def __init__(self, sched: Schedule, dtype: np.dtype, n: int):
        self.sched = sched
        self.dtype = dtype
        self.slots: list = [None] * n
        self.count = 0
        #: Whether everyone so far brought the first arrival's schedule
        #: and dtype — by value where identity misses, since a
        #: ``compile_*`` cache eviction between two ranks' calls hands
        #: them equal schedules that are different objects.
        self.same = True

    def join(self, index: int, sched: Schedule, dtype: np.dtype,
             slot) -> None:
        self.slots[index] = slot
        self.count += 1
        if not ((sched is self.sched or sched == self.sched)
                and dtype == self.dtype):
            self.same = False


def _drive(run: _RankRun, replays: bool) -> None:
    """The per-rank driver: this PE runs its own plan to the end, or —
    where the schedule ``replays`` — to its first barrier and on from
    wherever the replay left it."""
    ctx = run.ctx
    n = len(run.ops)
    # Indexes ``plan.ops``, which is what a replaying run interprets:
    # replay and span recording exclude each other.
    first_barrier = run.plan.first_barrier
    try:
        while True:
            _advance(run)
            if run.pc == n:
                return
            if replays and run.pc == first_barrier:
                _meet(run)
            else:
                block = run.ops[run.pc][1]
                ctx.barrier_team(tuple(run.members[q] for q in block)
                                 if block else run.members)
            run.pc += 1
    finally:
        if run.in_stage:  # a step raised inside a stage span
            ctx.spans.end(ctx.rank)


def _replayable(ctx: "XBRTime", members: tuple, sched: Schedule,
                plan: FlatPlan) -> bool:
    """Whether this call's barrier-to-barrier window may be replayed
    from one thread: a whole-machine group on the simulator's
    direct-handoff engine, one-sided, no fault injector, no tracing
    (barrier and stage spans are opened on the per-rank driver only),
    every barrier over the whole group, and a window to speak of."""
    world = ctx.machine
    if world is None or ctx._faults is not None or sched.table.partitioned:
        return False
    engine = world.engine
    return (len(members) == ctx.config.n_pes > 1 and plan.n_barriers > 1
            and engine.direct_handoff and not engine.trace.enabled
            and ctx.schedule_transport == "onesided")


def _meet(run: _RankRun) -> None:
    """``run`` stands at its first barrier: arrive, and either wait for
    whoever arrives last to take this rank to its last barrier, or be
    that one.  Returns with ``run.pc`` at the barrier just passed."""
    ctx = run.ctx
    world = ctx.machine
    engine = world.engine
    barriers = world.barriers
    rank = ctx.rank
    engine.checkpoint()
    inst, last = barriers.arrive(rank, barriers.members(run.members))
    rec = inst.rendezvous
    if rec is None:
        rec = inst.rendezvous = _Rendezvous(run.sched, run.dtype,
                                            ctx.config.n_pes)
    rec.join(rank, run.sched, run.dtype, run)
    if not last:
        engine.suspend()
        if run.error is not None:
            raise run.error
        return
    runs = rec.slots
    # The window is closed only if every rank is in it — with the same
    # schedule — to the same last barrier; otherwise this is an ordinary
    # barrier and every rank carries on alone.
    if rec.count == len(runs) and rec.same and all(
            r.plan.n_barriers == run.plan.n_barriers for r in runs):
        _replay(world, runs, inst, rank)
    else:
        ctx.pe.advance_to(barriers.release(inst, rank))


def _replay(world, runs: list, inst, me: int) -> None:
    """The replay driver: rank ``me``'s thread, having completed the
    arrivals at the first barrier ``inst``, runs every rank from there
    to the release of the last barrier (see the module doc)."""
    engine = world.engine
    barriers = world.barriers
    pes = engine.pes
    key = inst.key
    #: ``(clock, rank)`` heap of the ranks free to run: the engine's own
    #: run queue is empty for as long as everyone is in here.
    ready: list[tuple[float, int]] = []

    def wake(rank: int, at_time: float) -> None:
        runs[rank].pc += 1  # past the barrier it waited at
        pe = pes[rank]
        pe.advance_to(at_time)
        heappush(ready, (pe.clock, rank))

    def hand_back(rank: int, at_time: float) -> None:
        if rank == me:
            pes[me].advance_to(at_time)  # made runnable by yield_to
        else:
            engine.resume(rank, at_time)

    cur = me
    while True:
        # ``cur`` was the last to arrive at ``inst``: it releases, and
        # runs on first.
        run = runs[cur]
        pe = pes[cur]
        if run.pc == run.plan.last_barrier:
            pe.advance_to(barriers.release(inst, cur, hand_back))
            break
        pe.advance_to(barriers.release(inst, cur, wake))
        run.pc += 1
        while True:
            limit = ready[0][0] if ready else float("inf")
            try:
                _advance(run, limit)
            except BaseException as exc:
                if cur == me:
                    raise
                # The step was ``cur``'s: its own thread raises.  Mine
                # stays blocked, like every peer of a failed PE.
                run.error = exc
                engine.act_as(me)
                engine.resume(cur)
                engine.suspend()
                raise
            if pe.clock > limit:
                # What Engine.checkpoint does: someone earlier is
                # runnable, so queue up and let the earliest run.
                cur = heappushpop(ready, (pe.clock, cur))[1]
            else:
                inst, last = barriers.arrive(cur, key)
                if last:
                    break
                cur = heappop(ready)[1]  # Engine.suspend
            engine.act_as(cur)
            run = runs[cur]
            pe = pes[cur]
    engine.act_as(me)
    if cur != me:
        engine.yield_to(cur)


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
        _drive(_RankRun(ctx, sched, plan, addrs, members, dtype),
               _replayable(ctx, members, sched, plan))
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
