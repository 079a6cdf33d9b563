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
  into S chunks flowing through a :class:`~.schedule.ir.Pipeline`
  block: segment ``k`` of step ``j`` folds as soon as segment ``k`` of
  step ``j-1`` delivered, hiding per-round latency on large payloads.

Hazard freedom (checked mechanically by the schedule linter): at the
ring stage ``s`` rank ``r`` reads its left neighbour's block
``(r-2-s) mod N`` while the neighbour folds into its own block
``(r-3-s) mod N`` — always distinct.  At the PAT step of width ``w``
rank ``r`` reads partner offsets ``[w, w+grab)`` while the partner
writes its offsets ``[0, grab)`` — disjoint because ``grab <= w``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import CollectiveArgumentError
from .common import call_attrs, resolve_group
from .ops import check_op
from .scatter import _validate
from .schedule.executor import PreparedCollective
from .schedule.ir import (
    BARRIER,
    Buffer,
    Copy,
    Get,
    Pipeline,
    RankProgram,
    Reduce,
    Schedule,
    closed_stage,
    segment_bounds,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.context import XBRTime

__all__ = ["reduce_scatter", "prepare_reduce_scatter",
           "compile_reduce_scatter", "pat_width_steps"]

#: Algorithms :func:`compile_reduce_scatter` accepts.
ALGORITHMS = ("ring", "pat")


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


def reduce_scatter(
    ctx: "XBRTime",
    dest: int,
    src: int,
    pe_msgs: Sequence[int],
    pe_disp: Sequence[int],
    nelems: int,
    op: str,
    dtype: np.dtype,
    *,
    algorithm: str = "auto",
    segments: int = 1,
    group: Sequence[int] | None = None,
) -> None:
    """Reduce-scatter: PE ``r`` ends with the reduction of the
    ``pe_msgs[r]`` elements at displacement ``pe_disp[r]`` in its
    ``dest``.  ``algorithm`` is ``"ring"``, ``"pat"`` or ``"auto"``;
    ``segments`` (PAT only) pipelines each block in S chunks."""
    prepare_reduce_scatter(
        ctx, dest, src, pe_msgs, pe_disp, nelems, op, dtype,
        algorithm=algorithm, segments=segments, group=group,
    ).run(ctx)


def prepare_reduce_scatter(
    ctx: "XBRTime",
    dest: int,
    src: int,
    pe_msgs: Sequence[int],
    pe_disp: Sequence[int],
    nelems: int,
    op: str,
    dtype: np.dtype,
    *,
    algorithm: str = "auto",
    segments: int = 1,
    group: Sequence[int] | None = None,
) -> PreparedCollective:
    """Validate, select and compile — everything but the execution."""
    check_op(op, dtype)
    if segments < 1:
        raise CollectiveArgumentError("segments must be >= 1")
    members, me = resolve_group(ctx, group)
    n_pes = len(members)
    _validate(pe_msgs, pe_disp, nelems, n_pes, "reduce_scatter")
    if algorithm == "auto":
        from .tuning import select_algorithm

        algorithm = select_algorithm(
            "reduce_scatter", nelems * dtype.itemsize, n_pes,
            ctx.config.topology,
        )
    if algorithm not in ALGORITHMS:
        raise CollectiveArgumentError(
            f"unknown reduce_scatter algorithm {algorithm!r}"
        )
    sched = compile_reduce_scatter(
        n_pes, tuple(pe_msgs), tuple(pe_disp), nelems, dtype.itemsize, op,
        algorithm=algorithm, segments=segments,
    )
    return PreparedCollective(
        name="reduce_scatter", members=members, me=me, dtype=dtype,
        attrs=call_attrs(ctx, dtype, algorithm=algorithm, op=op,
                         nelems=nelems),
        schedule=sched, bindings={"dest": dest, "src": src},
        stats_key=f"reduce_scatter:{algorithm}", stats_rank=0,
    )


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
    programs = []
    for r in range(n_pes):
        steps: list = []
        if counts[r]:
            steps.append(Copy("dest", 0, "src", disps[r] * itemsize,
                              counts[r], 1, skip_noop=False))
        steps.append(BARRIER)
        programs.append(RankProgram(r, tuple(steps)))
    return Schedule(
        collective="reduce_scatter", algorithm=algorithm, n_pes=n_pes,
        itemsize=itemsize, op=op,
        buffers=(Buffer("dest", "user",
                        tuple(c * itemsize for c in counts)),
                 Buffer("src", "user",
                        _rs_extent(counts, disps) * itemsize)),
        programs=tuple(programs),
        deliver=_rs_deliver(n_pes, counts, itemsize),
    )


@lru_cache(maxsize=256)
def _compile_ring_rs(n_pes: int, counts: tuple[int, ...],
                     disps: tuple[int, ...], nelems: int, itemsize: int,
                     op: str) -> Schedule:
    """Rotating ring reduce-scatter: N-1 one-block stages."""
    if n_pes == 1 or nelems == 0:
        return _rs_degenerate(n_pes, counts, disps, nelems, itemsize, op,
                              "ring")
    eb = itemsize
    extent = _rs_extent(counts, disps)
    programs = []
    for r in range(n_pes):
        left = (r - 1) % n_pes
        prologue = (Copy("a", 0, "src", 0, extent, 1, skip_noop=False),
                    BARRIER)
        stages = []
        for s in range(n_pes - 1):
            # After stage s, this rank's accumulator block (r-2-s) mod N
            # holds the partial over ranks r-1-s..r; the walk ends with
            # block r complete at s = N-2.
            blk = (r - 2 - s) % n_pes
            cnt = counts[blk]
            steps: list = []
            if cnt:
                off = disps[blk] * eb
                steps.append(Get("l", off, "a", off, cnt, 1, left))
                steps.append(Reduce("a", off, "l", off, cnt, 1, cnt))
            stages.append(closed_stage(s, steps))
        epilogue: tuple = ()
        if counts[r]:
            epilogue = (Copy("dest", 0, "a", disps[r] * eb, counts[r], 1,
                             skip_noop=False),)
        programs.append(RankProgram(r, prologue, tuple(stages), epilogue))
    return Schedule(
        collective="reduce_scatter", algorithm="ring", n_pes=n_pes,
        itemsize=eb, op=op,
        buffers=_rs_buffers(n_pes, counts, extent, eb),
        programs=tuple(programs),
        deliver=_rs_deliver(n_pes, counts, eb),
    )


def _coalesce_blocks(blocks, counts, disps) -> list:
    """Merge disp-adjacent blocks into element ranges ``[lo, hi)``.

    ``blocks`` walks ring-consecutive ranks in descending order, so with
    the usual packed displacements the whole grab collapses into one or
    two (at the N-wrap) contiguous gets.
    """
    runs: list = []
    for d in blocks:
        if counts[d] == 0:
            continue
        lo, hi = disps[d], disps[d] + counts[d]
        if runs and runs[-1][0] == hi:    # extends the last run downward
            runs[-1][0] = lo
        elif runs and runs[-1][1] == lo:  # extends it upward
            runs[-1][1] = hi
        else:
            runs.append([lo, hi])
    return runs


@lru_cache(maxsize=256)
def _compile_pat_rs(n_pes: int, counts: tuple[int, ...],
                    disps: tuple[int, ...], nelems: int, itemsize: int,
                    op: str, segments: int) -> Schedule:
    """Parallel aggregated trees: the dissemination dual, pipelined."""
    if n_pes == 1 or nelems == 0:
        return _rs_degenerate(n_pes, counts, disps, nelems, itemsize, op,
                              "pat")
    eb = itemsize
    extent = _rs_extent(counts, disps)
    S = max(1, min(segments, max(counts)))
    # The allgather ladder reversed: the window of blocks each rank
    # still accumulates shrinks from N down to 1 (its own block).
    steps_desc = tuple(reversed(pat_width_steps(n_pes)))
    n_groups = len(steps_desc)
    programs = []
    for r in range(n_pes):
        prologue = (Copy("a", 0, "src", 0, extent, 1, skip_noop=False),
                    BARRIER)
        groups = [[()] * S for _ in range(n_groups)]
        for g, (w, grab) in enumerate(steps_desc):
            peer = (r + w) % n_pes
            blocks = [(r - o) % n_pes for o in range(grab)]
            if S == 1:
                steps: list = []
                for lo, hi in _coalesce_blocks(blocks, counts, disps):
                    off, cnt = lo * eb, hi - lo
                    steps.append(Get("l", off, "a", off, cnt, 1, peer))
                    steps.append(Reduce("a", off, "l", off, cnt, 1, cnt))
                groups[g][0] = tuple(steps)
                continue
            # Segmented: cut within each block so that segment k of this
            # step reads exactly the bytes segment k of the previous
            # (larger-width) step finished folding — the per-block
            # pipeline hazard contract the linter verifies.
            for k in range(S):
                steps = []
                for d in blocks:
                    e_lo, e_hi = segment_bounds(counts[d], S, k)
                    if e_hi == e_lo:
                        continue
                    off = (disps[d] + e_lo) * eb
                    cnt = e_hi - e_lo
                    steps.append(Get("l", off, "a", off, cnt, 1, peer))
                    steps.append(Reduce("a", off, "l", off, cnt, 1, cnt))
                groups[g][k] = tuple(steps)
        pipe = Pipeline(0, S, tuple(tuple(g) for g in groups),
                        attrs=(("phase", "pat-reduce"),))
        epilogue: tuple = ()
        if counts[r]:
            epilogue = (Copy("dest", 0, "a", disps[r] * eb, counts[r], 1,
                             skip_noop=False),)
        programs.append(RankProgram(r, prologue, (pipe,), epilogue))
    return Schedule(
        collective="reduce_scatter", algorithm="pat", n_pes=n_pes,
        itemsize=eb, op=op,
        buffers=_rs_buffers(n_pes, counts, extent, eb),
        programs=tuple(programs),
        deliver=_rs_deliver(n_pes, counts, eb),
    )
