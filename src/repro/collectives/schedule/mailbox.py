"""Lower one-sided schedules onto the two-sided mailbox transport.

:func:`lower_to_mailbox` rewrites every remote :class:`~.ir.Put` /
:class:`~.ir.Get` step of a compiled schedule into matched
:class:`~.ir.Send` / :class:`~.ir.Recv` pairs, preserving the schedule's
stage/barrier structure (Pipeline blocks are expanded to their lowered
rounds first, keeping the ``("pipeline", i)`` / ``("round", t)`` span
attrs) so the executor, the vec evaluator, the linter and the span
tracer all run the result unmodified.

The rewrite works one *barrier phase* at a time — the steps between two
consecutive barriers, aligned across ranks (barrier counts are
rank-uniform by the linter's deadlock pass).  Within phase ``p``:

* ``Put(peer=q)`` on rank ``r`` becomes ``Send(tag=TAG_PUT)`` in place;
  the matching ``Recv`` is appended to rank ``q``'s phase *tail* (just
  before the phase-ending barrier), ordered by (sender, sender's step
  order) so each (src, dst) pair's FIFO order is consistent by
  construction.
* ``Get(peer=q)`` becomes a request/reply exchange.  All requester
  ranks hoist a payload-free ``Send(tag=TAG_GET_REQ)`` to the phase
  *head*, every rank then joins one extra barrier (inserted only in
  phases containing a Get, and for every rank, so counts stay
  uniform), after which each serving rank runs
  ``Recv(request) + Send(reply)`` pairs ordered by (requester,
  request order) and the requester's in-place ``Recv(tag=TAG_GET_REPLY)``
  collects the payload.

Deadlock freedom follows from the phase ordering: head sends complete
eagerly, the extra barrier guarantees every request is enqueued before
any server blocks on it, serving pairs precede all in-place blocking
receives, and tail receives wait only on in-place sends — a strict
happens-before chain with no cycles.  Zero-element puts/gets are
dropped outright (they move no data on the one-sided path either).

The per-PE receive-queue depth must cover a phase's worst-case fan-in;
:func:`max_fan_in` reports the floor for a schedule so callers can size
:class:`~repro.params.MailboxParams.recv_depth`.
"""

from __future__ import annotations

import numpy as np

from .ir import (
    BARRIER,
    OP_SEND,
    Pipeline,
    RankProgram,
    Recv,
    Schedule,
    Send,
    Stage,
)

__all__ = ["lower_to_mailbox", "max_fan_in",
           "TAG_PUT", "TAG_GET_REQ", "TAG_GET_REPLY"]

#: Message-tag protocol of the lowering (checked at every matched recv).
TAG_PUT = 0
TAG_GET_REQ = 1
TAG_GET_REPLY = 2


def _units(prog: RankProgram) -> list[tuple[str, Stage | None, list]]:
    """The program as editable units: prologue, stages (pipelines
    expanded), epilogue."""
    units: list[tuple[str, Stage | None, list]] = [
        ("prologue", None, list(prog.prologue))
    ]
    for stage in prog.stages:
        if isinstance(stage, Pipeline):
            for lowered in stage.lower():
                units.append(("stage", lowered, list(lowered.steps)))
        else:
            units.append(("stage", stage, list(stage.steps)))
    units.append(("epilogue", None, list(prog.epilogue)))
    return units


def lower_to_mailbox(sched: Schedule) -> Schedule:
    """The mailbox-transport equivalent of ``sched`` (pure; made once
    per schedule and kept on it, ``Schedule.mailbox``)."""
    return sched.mailbox


def lower(sched: Schedule) -> Schedule:
    """What :func:`lower_to_mailbox` returns, made afresh."""
    n = sched.n_pes
    units = [_units(sched.program(r)) for r in range(n)]
    # Flat step positions and barrier positions per rank; ``bar_at[r][k]``
    # is the index into ``flat[r]`` of rank r's k-th barrier.
    flat: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    bar_pos: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    bar_at: list[list[int]] = [[] for _ in range(n)]
    for r in range(n):
        for u, (_, _, steps) in enumerate(units[r]):
            for i, step in enumerate(steps):
                if step.kind == "barrier":
                    bar_pos[r].append((u, i))
                    bar_at[r].append(len(flat[r]))
                flat[r].append((u, i))
    n_bars = len(bar_pos[0])
    if any(len(b) != n_bars for b in bar_pos):
        raise ValueError(
            f"{sched.collective}:{sched.algorithm} has rank-divergent "
            "barrier counts; lint the schedule before lowering"
        )

    # Rewrite maps per rank: steps inserted *before* a position, full
    # replacements for a position, and appends at end of program.
    before: list[dict] = [{} for _ in range(n)]
    replace: list[dict] = [{} for _ in range(n)]
    tail: list[list] = [[] for _ in range(n)]

    def region(r: int, k: int) -> list[tuple[int, int]]:
        lo = bar_at[r][k - 1] + 1 if k else 0
        hi = bar_at[r][k] if k < n_bars else len(flat[r])
        return flat[r][lo:hi]

    def step_at(r: int, pos: tuple[int, int]):
        u, i = pos
        return units[r][u][2][i]

    for k in range(n_bars + 1):
        regions = [region(r, k) for r in range(n)]
        head: list[list] = [[] for _ in range(n)]   # hoisted requests
        serve: list[list] = [[] for _ in range(n)]  # (requester, get) pairs
        endq: list[list] = [[] for _ in range(n)]   # tail put-receives
        split = False
        for r in range(n):
            for pos in regions[r]:
                step = step_at(r, pos)
                kind = step.kind
                if kind not in ("put", "get"):
                    continue
                assert step.peer != r, "remote step targeting self"
                if step.nelems == 0:
                    replace[r][pos] = []
                    continue
                if kind == "put":
                    replace[r][pos] = [Send(
                        step.src, step.src_off, step.nelems, step.stride,
                        step.peer, TAG_PUT)]
                    endq[step.peer].append(Recv(
                        step.dst, step.dst_off, step.nelems, step.stride,
                        r, TAG_PUT))
                else:
                    split = True
                    replace[r][pos] = [Recv(
                        step.dst, step.dst_off, step.nelems, step.stride,
                        step.peer, TAG_GET_REPLY)]
                    head[r].append(Send(
                        step.dst, step.dst_off, 0, 1, step.peer,
                        TAG_GET_REQ))
                    serve[step.peer].append((r, step))
        if not split and not any(endq):
            continue
        for r in range(n):
            start = list(head[r])
            if split:
                start.append(BARRIER)
                for requester, g in serve[r]:
                    start.append(Recv(g.src, g.src_off, 0, 1, requester,
                                      TAG_GET_REQ))
                    start.append(Send(g.src, g.src_off, g.nelems,
                                      g.stride, requester, TAG_GET_REPLY))
            if regions[r]:
                start_pos = regions[r][0]
            elif k < n_bars:
                start_pos = bar_pos[r][k]
            else:
                start_pos = None
            if start:
                if start_pos is None:
                    tail[r].extend(start)
                else:
                    before[r].setdefault(start_pos, []).extend(start)
            if endq[r]:
                if k < n_bars:
                    before[r].setdefault(bar_pos[r][k], []).extend(endq[r])
                else:
                    tail[r].extend(endq[r])

    programs = []
    for r in range(n):
        rebuilt: list[list] = []
        for u, (_, _, steps) in enumerate(units[r]):
            out: list = []
            for i, step in enumerate(steps):
                out.extend(before[r].get((u, i), ()))
                out.extend(replace[r].get((u, i), (step,)))
            rebuilt.append(out)
        rebuilt[-1].extend(tail[r])
        stages = tuple(
            Stage(stage.index, tuple(rebuilt[u]), attrs=stage.attrs)
            for u, (ukind, stage, _) in enumerate(units[r])
            if ukind == "stage"
        )
        programs.append(RankProgram(
            rank=r,
            prologue=tuple(rebuilt[0]),
            stages=stages,
            epilogue=tuple(rebuilt[-1]),
        ))
    return Schedule(
        collective=sched.collective,
        algorithm=sched.algorithm + "+mailbox",
        n_pes=n,
        itemsize=sched.itemsize,
        root=sched.root,
        op=sched.op,
        buffers=sched.buffers,
        programs=tuple(programs),
        deliver=sched.deliver,
    )


def max_fan_in(sched: Schedule) -> int:
    """Worst-case receive-queue occupancy a lowered ``sched`` can reach.

    Upper bound: a message sent in barrier phase ``p`` is matched in
    phase ``p`` (put payloads, replies) or ``p+1`` (hoisted requests),
    so a rank's queue during phase ``p`` never holds more than the
    messages addressed to it in phases ``p-1`` and ``p`` combined.  The
    mailbox ``recv_depth`` must be at least this bound to guarantee the
    schedule runs without exhausting backpressure retries.
    """
    table = sched.table
    n = sched.n_pes
    sends = np.flatnonzero((table.op == OP_SEND) & (table.peer >= 0)
                           & (table.peer < n))
    # load[d, p + 1]: messages addressed to rank d in phase p (column 0
    # stays empty, standing in for "phase -1").
    width = int(table.barriers.max(initial=0)) + 2
    load = np.bincount(table.peer[sends] * width + table.phase[sends] + 1,
                       minlength=n * width).reshape(n, width)
    return int((load[:, 1:] + load[:, :-1]).max(initial=0))
