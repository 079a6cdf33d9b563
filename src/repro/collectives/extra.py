"""Extended collectives (paper section 7 future work).

The paper's initial library ships broadcast/reduce/scatter/gather and
notes that "they can be combined together to accomplish the semantics of
several more complex operations" (section 4.2).  This module provides
those compositions plus a personalised all-to-all:

* :func:`allgather` — gather-to-all (OpenSHMEM ``collect``) and
  :func:`fcollect` for the fixed-size variant.  Three algorithms: the
  default ``"tree"`` composition (gather to rank 0, broadcast back), a
  compiled ``"dissemination"`` schedule that finishes in ⌈log₂N⌉
  stages by having every rank pull the growing prefix of its ring
  neighbour — half the stages and no root bottleneck — and ``"pat"``
  (parallel aggregated trees), the same doubling ladder but *dest
  direct*: every block travels its own binomial broadcast tree straight
  to its final ``pe_disp`` offset, so there is no rotation scratch and
  no unrotate epilogue (the dissemination variant's per-rank full-vector
  copy), which is the measured win at large payloads.  ``"pat"`` also
  accepts ``segments > 1`` to pipeline each block through the schedule
  IR's :class:`~.schedule.ir.Pipeline` rounds.
* :func:`alltoall` — personalised all-to-all exchange built from
  one-sided puts (each PE deposits its block directly at the
  destination offset of every peer).

Reduction-to-all is :func:`~repro.collectives.allreduce.allreduce`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import CollectiveArgumentError
from .broadcast import broadcast
from .common import call_attrs, collective_span, resolve_group
from .gather import gather
from .scatter import _validate
from .schedule.executor import PreparedCollective
from .reduce_scatter import pat_width_steps
from .schedule.ir import (
    BARRIER,
    Buffer,
    Copy,
    Get,
    Pipeline,
    Put,
    RankProgram,
    Schedule,
    closed_stage,
    segment_bounds,
)
from .virtual_rank import ring_neighbor, rotated_peers

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.context import XBRTime

__all__ = ["allgather", "fcollect", "alltoall",
           "compile_allgather", "compile_allgather_pat", "compile_alltoall"]


def allgather(
    ctx: "XBRTime",
    dest: int,
    src: int,
    pe_msgs: Sequence[int],
    pe_disp: Sequence[int],
    nelems: int,
    dtype: np.dtype,
    *,
    algorithm: str = "tree",
    segments: int = 1,
    group: Sequence[int] | None = None,
) -> None:
    """Gather-to-all (OpenSHMEM ``collect``): every PE ends with all
    contributions at ``dest`` (symmetric), laid out by ``pe_disp``.

    ``algorithm="tree"`` composes gather+broadcast through rank 0 (the
    historical default); ``"dissemination"`` compiles the ⌈log₂N⌉-stage
    doubling exchange; ``"pat"`` compiles the dest-direct aggregated
    trees (``segments`` chunks of every block in flight); ``"auto"``
    asks :mod:`~repro.collectives.tuning`.
    """
    if segments < 1:
        raise CollectiveArgumentError("segments must be >= 1")
    members, me = resolve_group(ctx, group)
    n_pes = len(members)
    if n_pes > 1 and not ctx.is_symmetric(dest):
        raise CollectiveArgumentError("allgather dest must be symmetric")
    if algorithm == "auto":
        from .tuning import select_algorithm

        algorithm = select_algorithm(
            "allgather", nelems * dtype.itemsize, n_pes,
            ctx.config.topology,
        )
    if algorithm == "tree":
        with collective_span(ctx, "allgather", members,
                             **call_attrs(ctx, dtype, nelems=nelems)):
            gather(ctx, dest, src, pe_msgs, pe_disp, nelems, 0, dtype,
                   group=group)
            broadcast(ctx, dest, dest, nelems, 1, 0, dtype, group=group)
        return
    if algorithm not in ("dissemination", "pat"):
        raise CollectiveArgumentError(
            f"unknown allgather algorithm {algorithm!r}"
        )
    _validate(pe_msgs, pe_disp, nelems, n_pes, "allgather")
    if algorithm == "pat":
        sched = compile_allgather_pat(n_pes, tuple(pe_msgs), tuple(pe_disp),
                                      nelems, dtype.itemsize, segments)
    else:
        sched = compile_allgather(n_pes, tuple(pe_msgs), tuple(pe_disp),
                                  nelems, dtype.itemsize)
    PreparedCollective(
        name="allgather", members=members, me=me, dtype=dtype,
        attrs=call_attrs(ctx, dtype, algorithm=algorithm, nelems=nelems),
        schedule=sched, bindings={"dest": dest, "src": src},
        stats_key=f"allgather:{algorithm}", stats_rank=0,
    ).run(ctx)


@lru_cache(maxsize=256)
def compile_allgather(n_pes: int, counts: tuple[int, ...],
                      disps: tuple[int, ...], nelems: int,
                      itemsize: int) -> Schedule:
    """Dissemination allgather: after stage ``i`` every rank holds the
    blocks of ``2^(i+1)`` consecutive ranks (ring order, starting at its
    own), so ⌈log₂N⌉ stages suffice for any PE count.

    Each rank keeps its scratch in *rotated* order — position ``j``
    holds rank ``(r+j) mod N``'s block — which makes every stage's
    transfer a single contiguous get: the blocks rank ``r`` needs from
    partner ``(r+2^i) mod N`` sit at the *front* of the partner's
    scratch, and they land right after the blocks ``r`` already owns.
    An epilogue unrotates into ``dest`` by ``pe_disp``.
    """
    eb = itemsize
    # Prefix sums over two laps of the ring make every blocks_len query
    # O(1); the old per-query summation was O(width), turning the whole
    # compile into O(N^2).
    pref = [0] * (2 * n_pes + 1)
    for j in range(2 * n_pes):
        pref[j + 1] = pref[j] + counts[j % n_pes]

    def blocks_len(start: int, width: int) -> int:
        """Total elements of ``width`` ring-consecutive blocks."""
        return pref[start + width] - pref[start]

    dest_nbytes = max((d + c) for d, c in zip(disps, counts)) * eb \
        if any(counts) else 0
    buffers = (
        Buffer("dest", "user", dest_nbytes, symmetric=n_pes > 1),
        Buffer("src", "user", tuple(c * eb for c in counts)),
        Buffer("s", "scratch", nelems * eb, symmetric=True),
    )
    deliver = tuple(
        (r, "dest", disps[i] * eb, (disps[i] + counts[i]) * eb)
        for r in range(n_pes) for i in range(n_pes) if counts[i]
    )
    if nelems == 0:
        return Schedule(
            collective="allgather", algorithm="dissemination", n_pes=n_pes,
            itemsize=eb, buffers=buffers[:2],
            programs=tuple(RankProgram(r, (BARRIER,))
                           for r in range(n_pes)),
        )
    programs = []
    for r in range(n_pes):
        prologue: list = []
        if counts[r]:
            prologue.append(Copy("s", 0, "src", 0, counts[r], 1,
                                 skip_noop=False))
        prologue.append(BARRIER)
        stages = []
        stage = 0
        width = 1  # ring-consecutive blocks this rank already holds
        while width < n_pes:
            grab = min(width, n_pes - width)
            partner = ring_neighbor(r, n_pes, width)
            have = blocks_len(r, width)       # elements already staged
            need = blocks_len(partner, grab)  # front of partner's scratch
            steps: list = []
            if need:
                steps.append(Get("s", have * eb, "s", 0, need, 1, partner))
            stages.append(closed_stage(stage, steps))
            width += grab
            stage += 1
        epilogue: list = []
        pos = 0
        for j in range(n_pes):
            blk = (r + j) % n_pes
            cnt = counts[blk]
            if cnt:
                epilogue.append(Copy("dest", disps[blk] * eb, "s", pos * eb,
                                     cnt, 1, skip_noop=False))
                pos += cnt
        epilogue.append(BARRIER)
        programs.append(RankProgram(r, tuple(prologue), tuple(stages),
                                    tuple(epilogue)))
    return Schedule(
        collective="allgather", algorithm="dissemination", n_pes=n_pes,
        itemsize=eb, buffers=buffers, programs=tuple(programs),
        deliver=deliver,
    )


@lru_cache(maxsize=256)
def compile_allgather_pat(n_pes: int, counts: tuple[int, ...],
                          disps: tuple[int, ...], nelems: int,
                          itemsize: int, segments: int = 1) -> Schedule:
    """Parallel-aggregated-tree allgather: dest-direct dissemination.

    Same ``(width, grab)`` doubling ladder as the dissemination variant,
    but every block lives at its final ``pe_disp`` offset in the
    (symmetric) ``dest`` from the start: at the step of width ``w``
    rank ``r`` pulls blocks ``[r+w, r+w+grab)`` straight from partner
    ``(r+w) mod N``'s dest.  Each block descends its own binomial
    broadcast tree and the N trees run in aggregate — no rotation
    scratch, no unrotate epilogue, and ring-adjacent blocks coalesce
    into single contiguous gets.  With ``segments > 1`` each block is
    cut into S chunks pipelined through a :class:`~.schedule.ir.Pipeline`
    (segment ``k`` is forwarded as soon as the upstream step delivered
    it, at the price of per-block per-segment gets).

    Hazard freedom: at width ``w`` rank ``r`` writes its blocks at
    offsets ``[w, w+grab)`` while its reader ``(r-w) mod N`` reads
    offsets ``[0, grab)`` — disjoint because ``grab <= w``; across
    steps every read hits bytes delivered in a strictly earlier round
    (the linter's pipelined cross-segment ordering check).
    """
    eb = itemsize
    dest_nbytes = max((d + c) for d, c in zip(disps, counts)) * eb \
        if any(counts) else 0
    buffers = (
        Buffer("dest", "user", dest_nbytes, symmetric=n_pes > 1),
        Buffer("src", "user", tuple(c * eb for c in counts)),
    )
    deliver = tuple(
        (r, "dest", disps[i] * eb, (disps[i] + counts[i]) * eb)
        for r in range(n_pes) for i in range(n_pes) if counts[i]
    )
    if nelems == 0:
        return Schedule(
            collective="allgather", algorithm="pat", n_pes=n_pes,
            itemsize=eb, buffers=buffers,
            programs=tuple(RankProgram(r, (BARRIER,))
                           for r in range(n_pes)),
        )
    S = max(1, min(segments, max(counts)))
    ladder = pat_width_steps(n_pes)
    programs = []
    for r in range(n_pes):
        prologue: list = []
        if counts[r]:
            prologue.append(Copy("dest", disps[r] * eb, "src", 0,
                                 counts[r], 1, skip_noop=False))
        prologue.append(BARRIER)
        groups = [[()] * S for _ in range(len(ladder))]
        for g, (w, grab) in enumerate(ladder):
            peer = (r + w) % n_pes
            blocks = [(r + w + o) % n_pes for o in range(grab)]
            if S == 1:
                steps: list = []
                for lo, hi in _coalesce_ascending(blocks, counts, disps):
                    steps.append(Get("dest", lo * eb, "dest", lo * eb,
                                     hi - lo, 1, peer))
                groups[g][0] = tuple(steps)
                continue
            for k in range(S):
                steps = []
                for d in blocks:
                    e_lo, e_hi = segment_bounds(counts[d], S, k)
                    if e_hi == e_lo:
                        continue
                    off = (disps[d] + e_lo) * eb
                    steps.append(Get("dest", off, "dest", off,
                                     e_hi - e_lo, 1, peer))
                groups[g][k] = tuple(steps)
        pipe = Pipeline(0, S, tuple(tuple(g) for g in groups),
                        attrs=(("phase", "pat-bcast"),))
        programs.append(RankProgram(r, tuple(prologue), (pipe,), ()))
    return Schedule(
        collective="allgather", algorithm="pat", n_pes=n_pes,
        itemsize=eb, buffers=buffers, programs=tuple(programs),
        deliver=deliver,
    )


def _coalesce_ascending(blocks, counts, disps) -> list:
    """Merge disp-adjacent blocks into element ranges ``[lo, hi)``."""
    runs: list = []
    for d in blocks:
        if counts[d] == 0:
            continue
        lo, hi = disps[d], disps[d] + counts[d]
        if runs and runs[-1][1] == lo:
            runs[-1][1] = hi
        elif runs and runs[-1][0] == hi:
            runs[-1][0] = lo
        else:
            runs.append([lo, hi])
    return runs


def fcollect(
    ctx: "XBRTime",
    dest: int,
    src: int,
    nelems_per_pe: int,
    dtype: np.dtype,
    *,
    algorithm: str = "tree",
    segments: int = 1,
    group: Sequence[int] | None = None,
) -> None:
    """Fixed-size gather-to-all (OpenSHMEM ``fcollect``)."""
    members, _ = resolve_group(ctx, group)
    n = len(members)
    msgs = [nelems_per_pe] * n
    disp = [i * nelems_per_pe for i in range(n)]
    allgather(ctx, dest, src, msgs, disp, nelems_per_pe * n, dtype,
              algorithm=algorithm, segments=segments, group=group)


def alltoall(
    ctx: "XBRTime",
    dest: int,
    src: int,
    nelems_per_pe: int,
    dtype: np.dtype,
    *,
    group: Sequence[int] | None = None,
) -> None:
    """Personalised all-to-all: block ``j`` of ``src`` on PE ``i`` lands
    as block ``i`` of ``dest`` on PE ``j``.

    Implemented with one-sided puts in a rotated order (PE ``i`` starts
    at peer ``i``, then walks the ring) so the messages of a stage
    spread across distinct targets instead of all hitting PE 0 at once.
    """
    if nelems_per_pe < 0:
        raise CollectiveArgumentError("nelems_per_pe must be >= 0")
    members, me = resolve_group(ctx, group)
    n = len(members)
    if n > 1 and not ctx.is_symmetric(dest):
        raise CollectiveArgumentError("alltoall dest must be symmetric")
    sched = compile_alltoall(n, nelems_per_pe, dtype.itemsize)
    PreparedCollective(
        name="alltoall", members=members, me=me, dtype=dtype,
        attrs=call_attrs(ctx, dtype, nelems=nelems_per_pe),
        schedule=sched, bindings={"dest": dest, "src": src},
        stats_key="alltoall:rotated", stats_rank=0,
    ).run(ctx)


@lru_cache(maxsize=256)
def compile_alltoall(n_pes: int, nelems_per_pe: int,
                     itemsize: int) -> Schedule:
    """Compile one alltoall call shape into a schedule (pure, cached)."""
    blk = nelems_per_pe * itemsize
    nbytes = n_pes * blk
    programs = []
    for r in range(n_pes):
        # Entry barrier: order every participant's prior writes to dest
        # before the incoming puts can land.
        prologue: list = [BARRIER]
        if nelems_per_pe:
            for peer in rotated_peers(r, n_pes):
                if peer == r:
                    prologue.append(Copy("dest", r * blk, "src", peer * blk,
                                         nelems_per_pe, 1, skip_noop=False))
                else:
                    prologue.append(Put("dest", r * blk, "src", peer * blk,
                                        nelems_per_pe, 1, peer))
        programs.append(RankProgram(r, tuple(prologue), (), (BARRIER,)))
    return Schedule(
        collective="alltoall", algorithm="rotated", n_pes=n_pes,
        itemsize=itemsize,
        buffers=(Buffer("dest", "user", nbytes, symmetric=n_pes > 1),
                 Buffer("src", "user", nbytes)),
        programs=tuple(programs),
        deliver=tuple((r, "dest", 0, nbytes) for r in range(n_pes))
        if nelems_per_pe else (),
    )
