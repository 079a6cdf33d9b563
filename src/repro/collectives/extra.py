"""Extended collectives (paper section 7 future work).

The paper's initial library ships broadcast/reduce/scatter/gather and
notes that "they can be combined together to accomplish the semantics of
several more complex operations" (section 4.2).  This module provides
those compositions plus a personalised all-to-all:

* allgather — gather-to-all (OpenSHMEM ``collect``;
  ``fcollect`` is the equal-counts case).  Three algorithms: the
  default ``"tree"`` (gather to rank 0, broadcast back, chained into
  one schedule by :func:`~.schedule.fuse.chain_schedules`), a
  compiled ``"dissemination"`` schedule that finishes in ⌈log₂N⌉
  stages by having every rank pull the growing prefix of its ring
  neighbour — half the stages and no root bottleneck — and ``"pat"``
  (parallel aggregated trees), the same doubling ladder but *dest
  direct*: every block travels its own binomial broadcast tree straight
  to its final ``pe_disp`` offset, so there is no rotation scratch and
  no unrotate epilogue (the dissemination variant's per-rank full-vector
  copy), which is the measured win at large payloads.  ``"pat"`` also
  accepts ``segments > 1`` to pipeline each block through the schedule
  IR's pipeline-block rounds.
* alltoall — personalised all-to-all exchange built
  from one-sided puts (each PE deposits its block directly at the
  destination offset of every peer).

Both are compilers only: their records in :mod:`~.request` validate
and select a call and compile it through the functions here
(``ctx.allgather`` / ``ctx.alltoall`` issue it through the context's
dispatcher).

Reduction-to-all is :func:`~repro.collectives.allreduce.compile_allreduce`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .broadcast import compile_broadcast
from .gather import compile_gather
from .reduce_scatter import coalesce_runs, pat_width_steps
from .schedule.fuse import chain_schedules
from .schedule.ir import (
    AUX_PLACE,
    OP_COPY,
    OP_GET,
    OP_PUT,
    Buffer,
    Rows,
    Schedule,
    pipeline_skeleton,
    skeleton,
)

__all__ = ["compile_allgather",
           "compile_allgather_pat", "compile_allgather_tree",
           "compile_alltoall"]


@lru_cache(maxsize=256)
def compile_allgather_tree(n_pes: int, counts: tuple[int, ...],
                           disps: tuple[int, ...], nelems: int,
                           itemsize: int) -> Schedule:
    """The tree allgather: a binomial gather to rank 0 chained with a
    binomial broadcast of the gathered ``dest`` back out — of its whole
    extent, so gapped displacements arrive too."""
    every = tuple(range(n_pes))
    extent = max((d + c for d, c in zip(disps, counts) if c), default=0)
    return chain_schedules("allgather", "tree", n_pes, [
        [(compile_gather(n_pes, 0, counts, disps, nelems, itemsize), every,
          {"dest": "dest", "src": "src"})],
        [(compile_broadcast(n_pes, 0, extent, 1, itemsize), every,
          {"dest": "dest", "src": "dest"})]])


def _ag_buffers(counts: tuple[int, ...], disps: tuple[int, ...],
                itemsize: int, n_pes: int) -> tuple[Buffer, Buffer]:
    """The symmetric ``dest`` every block lands in, and the per-rank
    ``src`` of each rank's own block."""
    dest_nbytes = max((d + c) for d, c in zip(disps, counts)) * itemsize \
        if any(counts) else 0
    return (Buffer("dest", "user", dest_nbytes, symmetric=n_pes > 1),
            Buffer("src", "user", tuple(c * itemsize for c in counts)))


def _ag_deliver(counts: tuple[int, ...], disps: tuple[int, ...],
                itemsize: int, n_pes: int) -> tuple:
    return tuple(
        (r, "dest", disps[i] * itemsize, (disps[i] + counts[i]) * itemsize)
        for r in range(n_pes) for i in range(n_pes) if counts[i])


#: Buffer indices of every allgather schedule (``_ag_buffers`` order,
#: then the dissemination's scratch).
_DEST, _SRC, _S = range(3)


def _barrier_only(algorithm: str, n_pes: int, itemsize: int,
                  buffers: tuple) -> Schedule:
    """An empty allgather: one barrier on every rank."""
    return Schedule.from_rows("allgather", algorithm, n_pes, itemsize,
                              Rows(), (skeleton(1, (), 0),),
                              buffers=buffers)


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
    buffers = _ag_buffers(counts, disps, eb, n_pes)
    if nelems == 0:
        return _barrier_only("dissemination", n_pes, eb, buffers)
    count = np.array(counts)
    ranks = np.arange(n_pes)
    # Prefix sums over two laps of the ring: the elements of ``width``
    # ring-consecutive blocks from ``start`` are pref[start + width] -
    # pref[start].
    pref = np.concatenate(([0], np.cumsum(np.tile(count, 2))))
    rows = Rows()
    rows.add(ranks, 0, 0, OP_COPY, (_S, 0), (_SRC, 0), count,
             aux=AUX_PLACE, where=count > 0)
    ladder = pat_width_steps(n_pes)
    for i, (width, grab) in enumerate(ladder):
        partner = (ranks + width) % n_pes
        have = pref[ranks + width] - pref[ranks]      # already staged
        need = pref[partner + grab] - pref[partner]   # partner's front
        rows.add(ranks, i + 1, i + 1, OP_GET, (_S, have * eb), (_S, 0),
                 need, peer=partner, where=need > 0)
    blk = (ranks[:, None] + ranks) % n_pes
    pos = np.cumsum(count[blk], axis=1) - count[blk]
    rows.add(ranks[:, None], len(ladder) + 1, len(ladder) + 1, OP_COPY,
             (_DEST, np.array(disps)[blk] * eb), (_S, pos * eb), count[blk],
             aux=AUX_PLACE, where=count[blk] > 0)
    return Schedule.from_rows(
        "allgather", "dissemination", n_pes, eb, rows,
        (skeleton(1, ((i, ()) for i in range(len(ladder))), 1),),
        buffers=buffers + (Buffer("s", "scratch", nelems * eb,
                                  symmetric=True),),
        deliver=_ag_deliver(counts, disps, eb, n_pes))


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
    cut into S chunks pipelined through a pipeline block
    (segment ``k`` is forwarded as soon as the upstream step delivered
    it, at the price of per-block per-segment gets).

    Hazard freedom: at width ``w`` rank ``r`` writes its blocks at
    offsets ``[w, w+grab)`` while its reader ``(r-w) mod N`` reads
    offsets ``[0, grab)`` — disjoint because ``grab <= w``; across
    steps every read hits bytes delivered in a strictly earlier round
    (the linter's pipelined cross-segment ordering check).
    """
    eb = itemsize
    buffers = _ag_buffers(counts, disps, eb, n_pes)
    if nelems == 0:
        return _barrier_only("pat", n_pes, eb, buffers)
    S = max(1, min(segments, max(counts)))
    ladder = pat_width_steps(n_pes)
    count, disp = np.array(counts), np.array(disps)
    ranks = np.arange(n_pes)
    rows = Rows()
    rows.add(ranks, 0, 0, OP_COPY, (_DEST, disp * eb), (_SRC, 0), count,
             aux=AUX_PLACE, where=count > 0)
    for t in range(len(ladder) + S - 1):
        for g in range(max(0, t - S + 1), min(t, len(ladder) - 1) + 1):
            w, grab = ladder[g]
            blocks = (ranks[:, None] + w + np.arange(grab)) % n_pes
            if S == 1:
                rank, lo, hi = coalesce_runs(disp[blocks],
                                             (disp + count)[blocks])
                rows.add(rank, 1 + t, 1 + t, OP_GET, (_DEST, lo * eb),
                         (_DEST, lo * eb), hi - lo,
                         peer=(rank + w) % n_pes, group=g)
                continue
            e_lo = count[blocks] * (t - g) // S
            e_hi = count[blocks] * (t - g + 1) // S
            off = (disp[blocks] + e_lo) * eb
            rows.add(ranks[:, None], 1 + t, 1 + t, OP_GET, (_DEST, off),
                     (_DEST, off), e_hi - e_lo,
                     peer=(ranks[:, None] + w) % n_pes, where=e_hi > e_lo,
                     group=g)
    return Schedule.from_rows(
        "allgather", "pat", n_pes, eb, rows,
        (pipeline_skeleton(1, S, len(ladder), (("phase", "pat-bcast"),),
                           0),),
        buffers=buffers, deliver=_ag_deliver(counts, disps, eb, n_pes))


@lru_cache(maxsize=256)
def compile_alltoall(n_pes: int, nelems_per_pe: int,
                     itemsize: int) -> Schedule:
    """Compile one alltoall call shape into a schedule (pure, cached).

    After an entry barrier — which orders every participant's prior
    writes to dest before the incoming puts can land — rank ``r`` walks
    the ring from itself: its own block is a local copy, block ``q`` a
    put to rank ``q``."""
    blk = nelems_per_pe * itemsize
    nbytes = n_pes * blk
    ranks = np.arange(n_pes)[:, None]
    peer = (ranks + ranks.T) % n_pes
    rows = Rows()
    rows.add(ranks, 0, 1, np.where(peer == ranks, OP_COPY, OP_PUT),
             (_DEST, ranks * blk), (_SRC, peer * blk), nelems_per_pe,
             peer=peer, aux=np.where(peer == ranks, AUX_PLACE, 0),
             where=nelems_per_pe > 0)
    return Schedule.from_rows(
        "alltoall", "rotated", n_pes, itemsize, rows, (skeleton(1, (), 1),),
        buffers=(Buffer("dest", "user", nbytes, symmetric=n_pes > 1),
                 Buffer("src", "user", nbytes)),
        deliver=tuple((r, "dest", 0, nbytes) for r in range(n_pes))
        if nelems_per_pe else ())
