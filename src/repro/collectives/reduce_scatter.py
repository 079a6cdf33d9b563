"""First-class reduce-scatter (OpenSHMEM ``reduce_scatter`` semantics).

Every PE contributes a full ``nelems`` vector at ``src``; after the
call, PE ``r`` holds the elementwise reduction of *its* block — the
``pe_msgs[r]`` elements at displacement ``pe_disp[r]`` — at ``dest``.
Blocks may be ragged (per-PE counts differ) and zero-count PEs simply
receive nothing.  Neither ``src`` nor ``dest`` needs to be symmetric:
all remote traffic goes through the schedule's symmetric scratch
accumulator, exactly like the ring allreduce.

Two compiled algorithms:

* **ring** (``algorithm="ring"``) — the bandwidth-optimal rotation:
  ``N-1`` stages, each rank folding one block pulled from its left
  neighbour's accumulator, walking the blocks so that after the last
  stage rank ``r``'s accumulator holds the complete sum of block ``r``.
  Every stage moves one block over nearest-neighbour links.
* **PAT** (``algorithm="pat"``) — a parallel-aggregated-tree schedule
  dual to the dissemination allgather: the held-block window *shrinks*
  by doubling steps instead of growing, so any PE count finishes in
  ⌈log₂N⌉ rounds.  At the step of width ``w`` rank ``r`` pulls from
  ``(r+w) mod N`` the partner's partials for the ``grab`` blocks
  ``r, r-1, …`` and folds them — every block travels down its own
  binomial reduction tree, and all N trees proceed in aggregate.
  Blocks stay at their natural ``pe_disp`` offsets throughout (no
  rotation scratch), so ring-adjacent blocks coalesce into single
  strided gets.  With ``segments > 1`` each block is additionally cut
  into S chunks flowing through a pipeline block: segment ``k`` of
  step ``j`` folds as soon as segment ``k`` of step ``j-1`` delivered,
  hiding per-round latency on large payloads.

Hazard freedom (checked mechanically by the schedule linter): at the
ring stage ``s`` rank ``r`` reads its left neighbour's block
``(r-2-s) mod N`` while the neighbour folds into its own block
``(r-3-s) mod N`` — always distinct.  At the PAT step of width ``w``
rank ``r`` reads partner offsets ``[w, w+grab)`` while the partner
writes its offsets ``[0, grab)`` — disjoint because ``grab <= w``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import CollectiveArgumentError
from .allreduce import _A, _pull_and_fold
from .schedule.ir import (
    AUX_PLACE,
    OP_COPY,
    Buffer,
    Rows,
    Schedule,
    pipeline_skeleton,
    skeleton,
)

__all__ = ["compile_reduce_scatter", "pat_width_steps", "coalesce_runs"]


def pat_width_steps(n_pes: int) -> tuple[tuple[int, int], ...]:
    """The ``(width, grab)`` doubling ladder shared by the dissemination
    allgather and its reduce-scatter dual: widths ``1, 2, 4, …`` with the
    last step clamped so ``width + grab`` lands exactly on ``n_pes``.
    """
    steps = []
    width = 1
    while width < n_pes:
        grab = min(width, n_pes - width)
        steps.append((width, grab))
        width += grab
    return tuple(steps)


def coalesce_runs(lo: np.ndarray, hi: np.ndarray) -> tuple:
    """Merge each rank's blocks into runs of adjacent elements.

    ``lo`` and ``hi`` are ``[rank, block]`` element bounds, each rank's
    blocks in the order its ladder step walks them.  A block extends the
    rank's open run when it ends where the run starts or starts where
    it ends (never both: blocks are disjoint and non-empty), else it
    opens a new run; empty blocks are skipped.  With packed
    displacements a whole grab collapses into one or two (at the N-wrap)
    runs.  Returns the runs' ``(rank, lo, hi)`` in the order they
    closed — each rank's in the order they opened, as one
    :class:`~.schedule.ir.Rows` block wants them.
    """
    n, m = lo.shape
    run_lo = np.zeros(n, dtype=np.int64)
    run_hi = np.zeros(n, dtype=np.int64)
    is_open = np.zeros(n, dtype=bool)
    runs = []
    for j in range(m):
        b_lo, b_hi = lo[:, j], hi[:, j]
        live = b_hi > b_lo
        down = live & is_open & (run_lo == b_hi)
        up = live & is_open & (run_hi == b_lo)
        new = live & ~(down | up)
        closed = np.flatnonzero(new & is_open)
        runs.append((closed, run_lo[closed], run_hi[closed]))
        run_lo = np.where(new | down, b_lo, run_lo)
        run_hi = np.where(new | up, b_hi, run_hi)
        is_open |= new
    last = np.flatnonzero(is_open)
    runs.append((last, run_lo[last], run_hi[last]))
    return tuple(map(np.concatenate, zip(*runs)))


@lru_cache(maxsize=256)
def compile_reduce_scatter(n_pes: int, counts: tuple[int, ...],
                           disps: tuple[int, ...], nelems: int,
                           itemsize: int, op: str, *,
                           algorithm: str = "ring",
                           segments: int = 1) -> Schedule:
    """Compile one reduce-scatter call shape (pure, cached)."""
    if algorithm == "ring":
        return _compile_ring_rs(n_pes, counts, disps, nelems, itemsize, op)
    if algorithm == "pat":
        return _compile_pat_rs(n_pes, counts, disps, nelems, itemsize, op,
                               segments)
    raise CollectiveArgumentError(
        f"unknown reduce_scatter algorithm {algorithm!r}"
    )


def _rs_extent(counts: tuple[int, ...], disps: tuple[int, ...]) -> int:
    """Elements spanned by the block layout (disps may be non-packed)."""
    return max((d + c for d, c in zip(disps, counts)), default=0)


#: Buffer indices of every reduce-scatter schedule (``_rs_buffers``
#: order): the accumulator ``a`` where allreduce keeps it, then ``l``.
_DEST, _SRC, _L = 0, 1, _A + 1


def _rs_buffers(n_pes: int, counts: tuple[int, ...], extent: int,
                itemsize: int) -> tuple[Buffer, ...]:
    return (
        Buffer("dest", "user", tuple(c * itemsize for c in counts)),
        Buffer("src", "user", extent * itemsize),
        Buffer("a", "scratch", extent * itemsize, symmetric=True),
        Buffer("l", "private", extent * itemsize),
    )


def _rs_deliver(n_pes: int, counts: tuple[int, ...],
                itemsize: int) -> tuple:
    return tuple((r, "dest", 0, counts[r] * itemsize)
                 for r in range(n_pes) if counts[r])


def _rs_degenerate(n_pes: int, counts: tuple[int, ...],
                   disps: tuple[int, ...], nelems: int, itemsize: int,
                   op: str, algorithm: str) -> Schedule:
    """n_pes == 1 or empty vector: a local copy of the own block."""
    count = np.array(counts)
    rows = Rows()
    rows.add(np.arange(n_pes), 0, 0, OP_COPY, (_DEST, 0),
             (_SRC, np.array(disps) * itemsize), count, aux=AUX_PLACE,
             where=count > 0)
    return Schedule.from_rows(
        "reduce_scatter", algorithm, n_pes, itemsize, rows,
        (skeleton(1, (), 0),), op=op,
        buffers=_rs_buffers(n_pes, counts, _rs_extent(counts, disps),
                            itemsize)[:2],
        deliver=_rs_deliver(n_pes, counts, itemsize))


def _rs_schedule(algorithm: str, n_pes: int, counts: tuple[int, ...],
                 disps: tuple[int, ...], itemsize: int, op: str, rows: Rows,
                 structure) -> Schedule:
    """Every rank's block copied out of the accumulator after ``rows``
    (which begin with the accumulator's load), in the last section."""
    count = np.array(counts)
    last = len(structure.sections) - 1
    rows.add(np.arange(n_pes), last, structure.n_barriers, OP_COPY,
             (_DEST, 0), (_A, np.array(disps) * itemsize), count,
             aux=AUX_PLACE, where=count > 0)
    return Schedule.from_rows(
        "reduce_scatter", algorithm, n_pes, itemsize, rows, (structure,),
        op=op,
        buffers=_rs_buffers(n_pes, counts, _rs_extent(counts, disps),
                            itemsize),
        deliver=_rs_deliver(n_pes, counts, itemsize))


def _loaded(n_pes: int, counts: tuple[int, ...],
            disps: tuple[int, ...]) -> Rows:
    """Every rank loads its whole ``src`` into the shared accumulator,
    then the barrier that orders every load before the first get."""
    rows = Rows()
    rows.add(np.arange(n_pes), 0, 0, OP_COPY, (_A, 0), (_SRC, 0),
             _rs_extent(counts, disps), aux=AUX_PLACE)
    return rows


@lru_cache(maxsize=256)
def _compile_ring_rs(n_pes: int, counts: tuple[int, ...],
                     disps: tuple[int, ...], nelems: int, itemsize: int,
                     op: str) -> Schedule:
    """Rotating ring reduce-scatter: N-1 one-block stages.

    After stage ``s`` rank ``r``'s accumulator block ``(r-2-s) mod N``
    holds the partial over ranks ``r-1-s..r``, pulled from the left
    neighbour and folded; the walk ends with block ``r`` complete at
    ``s = N-2``."""
    if n_pes == 1 or nelems == 0:
        return _rs_degenerate(n_pes, counts, disps, nelems, itemsize, op,
                              "ring")
    ranks = np.arange(n_pes)[:, None]
    steps = np.arange(n_pes - 1)
    blk = (ranks - 2 - steps) % n_pes
    count = np.array(counts)[blk]
    rows = _loaded(n_pes, counts, disps)
    _pull_and_fold(rows, ranks, steps + 1, steps + 1, np.array(disps)[blk],
                   count, 1, itemsize, (ranks - 1) % n_pes, _L,
                   where=count > 0)
    return _rs_schedule("ring", n_pes, counts, disps, itemsize, op, rows,
                        skeleton(1, ((s, ()) for s in range(n_pes - 1)), 0))


@lru_cache(maxsize=256)
def _compile_pat_rs(n_pes: int, counts: tuple[int, ...],
                    disps: tuple[int, ...], nelems: int, itemsize: int,
                    op: str, segments: int) -> Schedule:
    """Parallel aggregated trees: the dissemination dual, pipelined.

    Group ``g`` is the ``g``-th step of the allgather ladder reversed —
    the window of blocks each rank still accumulates shrinks from N
    down to 1 (its own block): at width ``w`` rank ``r`` pulls blocks
    ``r, r-1, …, r-grab+1`` from ``(r+w) mod N``'s accumulator and
    folds them.  Unsegmented, ring-adjacent blocks coalesce into one
    get and fold per run; segmented, segment ``k`` of every block is
    cut so that it reads exactly the bytes segment ``k`` of the
    previous (larger-width) step finished folding — the per-block
    pipeline hazard contract the linter verifies."""
    if n_pes == 1 or nelems == 0:
        return _rs_degenerate(n_pes, counts, disps, nelems, itemsize, op,
                              "pat")
    S = max(1, min(segments, max(counts)))
    ladder = pat_width_steps(n_pes)[::-1]
    count, disp = np.array(counts), np.array(disps)
    ranks = np.arange(n_pes)
    rows = _loaded(n_pes, counts, disps)
    for t in range(len(ladder) + S - 1):
        for g in range(max(0, t - S + 1), min(t, len(ladder) - 1) + 1):
            w, grab = ladder[g]
            blocks = (ranks[:, None] - np.arange(grab)) % n_pes
            if S == 1:
                rank, lo, hi = coalesce_runs(disp[blocks],
                                             (disp + count)[blocks])
                _pull_and_fold(rows, rank, 1 + t, 1 + t, lo, hi - lo, 1,
                               itemsize, (rank + w) % n_pes, _L, group=g)
                continue
            e_lo = count[blocks] * (t - g) // S
            e_hi = count[blocks] * (t - g + 1) // S
            _pull_and_fold(rows, ranks[:, None], 1 + t, 1 + t,
                           disp[blocks] + e_lo, e_hi - e_lo, 1, itemsize,
                           (ranks[:, None] + w) % n_pes, _L,
                           where=e_hi > e_lo, group=g)
    return _rs_schedule(
        "pat", n_pes, counts, disps, itemsize, op, rows,
        pipeline_skeleton(1, S, len(ladder), (("phase", "pat-reduce"),), 0))
