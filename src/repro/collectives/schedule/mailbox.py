"""Lower one-sided schedules onto the two-sided mailbox transport.

:func:`lower_to_mailbox` rewrites the remote put / get rows of a
schedule's :class:`~.ir.StepTable` into matched send / recv rows, table
to table (no step is read alone).  Each rank keeps its skeleton, a
pipeline round read as the plain stage it lowers to (span attrs kept),
so the executor, the vec evaluator, the linter and the span tracer all
run the result unmodified.

The rewrite works one *barrier phase* at a time — the rows between two
consecutive barriers, aligned across ranks (barrier counts are
rank-uniform by the linter's deadlock pass).  Within phase ``p``:

* A put to ``q`` on rank ``r`` becomes a send (``TAG_PUT``) in place;
  the matching recv is appended to rank ``q``'s phase *tail* (just
  before the phase-ending barrier), ordered by (sender, sender's step
  order) so each (src, dst) pair's FIFO order is consistent by
  construction.
* A get from ``q`` becomes a request/reply exchange.  All requester
  ranks hoist a payload-free send (``TAG_GET_REQ``) to the phase
  *head*, every rank then joins one extra barrier (inserted only in
  phases containing a get, and for every rank, so counts stay
  uniform), after which each serving rank runs request-recv +
  reply-send pairs ordered by (requester, request order) and the
  requester's in-place recv (``TAG_GET_REPLY``) collects the payload.

Deadlock freedom follows from the phase ordering: head sends complete
eagerly, the extra barrier guarantees every request is enqueued before
any server blocks on it, serving pairs precede all in-place blocking
receives, and tail receives wait only on in-place sends — a strict
happens-before chain with no cycles.  Zero-element puts/gets are
dropped outright (they move no data on the one-sided path either).  A
schedule the rewrite cannot keep deadlock-free — rank-divergent barrier
counts, a pipeline block too malformed to lower, a step of no known
kind, a put or get naming its own rank — raises ``ValueError``.

The per-PE receive-queue depth must cover a phase's worst-case fan-in;
:func:`max_fan_in` reports the floor for a schedule so callers can size
:class:`~repro.params.MailboxParams.recv_depth`.
"""

from __future__ import annotations

import numpy as np

from .ir import OP_GET, OP_PUT, OP_RECV, OP_SEND, Rows, Schedule, Skeleton

__all__ = ["lower_to_mailbox", "max_fan_in",
           "TAG_PUT", "TAG_GET_REQ", "TAG_GET_REPLY"]

#: Message-tag protocol of the lowering (checked at every matched recv).
TAG_PUT = 0
TAG_GET_REQ = 1
TAG_GET_REPLY = 2


def lower_to_mailbox(sched: Schedule) -> Schedule:
    """The mailbox-transport equivalent of ``sched`` (pure; made once
    per schedule and kept on it, ``Schedule.mailbox``)."""
    return sched.mailbox


def lower(sched: Schedule) -> Schedule:
    """What :func:`lower_to_mailbox` returns, made afresh."""
    t = sched.table
    label = f"{sched.collective}:{sched.algorithm}"
    if len(set(t.barriers.tolist())) > 1:
        raise ValueError(
            f"{label} has rank-divergent barrier counts; lint the "
            "schedule before lowering")
    remote = (t.op == OP_PUT) | (t.op == OP_GET)
    selfish = np.flatnonzero(remote & (t.peer == t.rank))
    if len(selfish):
        raise ValueError(
            f"{label} rank {t.rank[selfish[0]]} has a remote step "
            f"targeting itself: {t.step_text(int(selfish[0]))}")
    ph = t.phase
    put = np.flatnonzero((t.op == OP_PUT) & (t.nelems > 0))
    get = np.flatnonzero((t.op == OP_GET) & (t.nelems > 0))
    keep = np.flatnonzero(~remote | (t.nelems > 0))
    # A phase with a get gains a barrier after its head: ``shift[p]`` is
    # what the rest of phase p moves by, ``shift[p] - split[p]`` its head.
    split = np.zeros(int(t.barriers[0]) + 1, dtype=np.int64)
    split[ph[get]] = 1
    shift = np.cumsum(split)
    # ``at[r, p]``: the section holding rank r's barrier p (for the last
    # phase, the epilogue) — where the phase's tail goes; ``start[r, p]``
    # where its head goes: the section of the rank's first row in it.
    used = np.unique(t.skeleton_of)
    at = np.array([
        np.repeat(np.arange(len(secs)), [sec.nbars for sec in secs]
                  ).tolist() + [len(secs) - 1]
        for secs in (t.skeletons[j].sections for j in used.tolist())
    ])[np.searchsorted(used, t.skeleton_of)]
    start = at.copy()
    first = np.flatnonzero(t.slot == 0)
    start[t.rank[first], ph[first]] = t.section[first]

    # Blocks of rows — a get's request at its phase's head, the serving
    # pair after the extra barrier, every row in place, a put's recv at
    # the tail — each keyed (phase, that part, row), then Rows.FIELDS.
    g_ph, g_r, g_q, g_src = ph[get], t.rank[get], t.peer[get], t.b_buf[get]
    k_op, k_ph = t.op[keep], ph[keep]
    is_put, is_get = k_op == OP_PUT, k_op == OP_GET
    p_ph, p_q = ph[put], t.peer[put]
    blocks = [np.broadcast_arrays(*cols) for cols in (
        (g_ph, 0, 2 * get, g_r, start[g_r, g_ph], g_ph + shift[g_ph]
         - split[g_ph], OP_SEND, -1, 0, t.a_buf[get], t.a_off[get], 0, 1,
         g_q, TAG_GET_REQ),
        (g_ph, 1, 2 * get, g_q, start[g_q, g_ph], g_ph + shift[g_ph],
         OP_RECV, g_src, t.b_off[get], -1, 0, 0, 1, g_r, TAG_GET_REQ),
        (g_ph, 1, 2 * get + 1, g_q, start[g_q, g_ph], g_ph + shift[g_ph],
         OP_SEND, -1, 0, g_src, t.b_off[get], t.nelems[get], t.stride[get],
         g_r, TAG_GET_REPLY),
        (k_ph, 2, 2 * keep, t.rank[keep], t.section[keep],
         k_ph + shift[k_ph],
         np.where(is_put, OP_SEND, np.where(is_get, OP_RECV, k_op)),
         np.where(is_put, -1, t.a_buf[keep]),
         np.where(is_put, 0, t.a_off[keep]),
         np.where(is_get, -1, t.b_buf[keep]),
         np.where(is_get, 0, t.b_off[keep]), t.nelems[keep],
         t.stride[keep], t.peer[keep],
         np.where(is_put, TAG_PUT,
                  np.where(is_get, TAG_GET_REPLY, t.aux[keep]))),
        (p_ph, 3, 2 * put, p_q, at[p_q, p_ph], p_ph + shift[p_ph], OP_RECV,
         t.a_buf[put], t.a_off[put], -1, 0, t.nelems[put], t.stride[put],
         t.rank[put], TAG_PUT))]
    cols = np.concatenate([np.stack(b) for b in blocks], axis=1)
    cols = cols[:, np.lexsort((cols[2], cols[1], cols[0], cols[3]))]

    # Each rank's skeleton gains the extra barriers where its heads went;
    # every section reads as a plain stage.
    kinds: dict = {}
    skeleton_of = [kinds.setdefault(key, len(kinds)) for key in map(
        tuple, np.column_stack([t.skeleton_of, start[:, split == 1]])
        .tolist())]
    skeletons = []
    for base, *where in kinds:
        sections = t.skeletons[base].sections
        extra = np.bincount(where, minlength=len(sections)).tolist()
        sections = tuple(
            sec._replace(nbars=sec.nbars + more, pipeline=-1, round=-1)
            for sec, more in zip(sections, extra))
        skeletons.append(Skeleton(sections, tuple(
            sec.index for sec in sections if sec.kind == "stage")))
    return Schedule.from_rows(
        sched.collective, sched.algorithm + "+mailbox", sched.n_pes,
        sched.itemsize,
        dict(zip(Rows.FIELDS, (*cols[3:], np.full(cols.shape[1], -1)))),
        tuple(skeletons),
        skeleton_of=skeleton_of, root=sched.root, op=sched.op,
        buffers=sched.buffers, deliver=sched.deliver, names=t.names)


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
