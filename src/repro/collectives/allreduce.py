"""One-sided allreduce algorithms (paper section 7), compiled.

The paper's "explicit reduction-to-all calls" future work, in three
flavours:

* **recursive doubling** (``algorithm="doubling"``, the default) —
  ⌈log₂N⌉ stages, each PE *gets* its partner's full running value and
  folds it.  Optimal for small payloads (half the stages of the
  reduce+broadcast composition).
* **Rabenseifner** (``algorithm="rabenseifner"``) — the large-message
  algorithm of the paper's reference [17]: a recursive-halving
  reduce-scatter (each stage exchanges *half* the remaining data)
  followed by a recursive-doubling allgather, moving 2·(N-1)/N of the
  payload per PE instead of log₂N times the payload.
* **ring** (``algorithm="ring"``) — the bandwidth-optimal ring: a
  segment-rotating reduce-scatter followed by a segment-rotating
  allgather, 2·(N-1) stages each moving only ``nelems/N`` elements over
  nearest-neighbour links.  Works for any PE count (no power-of-two
  fold) and keeps every link equally loaded, which is why it wins on
  ring/torus topologies.
* **doubly-pipelined dual-root** (``algorithm="dual-pipelined"``,
  after Träff) — the payload is cut into S segments that flow up and
  back down *two* interleaved binary trees (even segments through the
  tree rooted at 0, odd ones through the tree rooted at N/2, so the
  inner/leaf roles swap and per-rank bandwidth balances).  Compiled
  through the schedule IR's :class:`~.schedule.ir.Pipeline` block, the
  reduce of segment k overlaps the broadcast of segment k-Δ: the whole
  allreduce finishes in ``2·depth + S - 1`` pipelined rounds instead of
  the ring's ``2·(N-1)``, which is the large-payload round-count win at
  scale (any PE count, no power-of-two fold).

Correctness under one-sided reads: recursive doubling double-buffers
(everyone reads the partner's *current* buffer and writes the *next*),
while Rabenseifner's and the ring's stages read and write provably
disjoint regions, so a barrier per stage suffices — a property the
schedule linter (:mod:`repro.collectives.schedule.lint`) now checks
mechanically for every compiled stage.

Non-power-of-two PE counts (doubling/Rabenseifner) use the MPICH fold:
the first ``2·rem`` ranks pair up (odd ranks contribute to their even
neighbour and sit out), the surviving power-of-two set runs the core
algorithm, and the results are pushed back to the folded-out ranks.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import CollectiveArgumentError
from .binomial import n_stages
from .common import (
    call_attrs,
    resolve_group,
    span_bytes,
    validate_counts,
)
from .ops import check_op
from .schedule.executor import PreparedCollective
from .schedule.ir import (
    BARRIER,
    Buffer,
    Copy,
    Get,
    Pipeline,
    Put,
    RankProgram,
    Reduce,
    Schedule,
    barrier_stage,
    closed_stage,
    segment_bounds,
)
from .virtual_rank import ring_neighbor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.context import XBRTime

__all__ = ["allreduce", "prepare_allreduce", "compile_allreduce"]

#: Algorithms :func:`compile_allreduce` accepts.
ALGORITHMS = ("doubling", "rabenseifner", "ring", "dual-pipelined")

def auto_segments(nbytes: int) -> int:
    """Default segment count for a dual-pipelined payload of ``nbytes``.

    S trades round count (``2·depth + S - 1`` extra barrier rounds)
    against per-round chunk serialization (each round moves ``~2/S`` of
    the payload on the critical path), so the optimum grows like the
    square root of the payload — ``S ≈ √(nbytes/1 KiB)`` tracks the
    evaluator's measured optimum within a few percent from 64 KiB to
    1 MiB (see ``BENCH_pipeline.json``).
    """
    return max(2, min(64, isqrt(max(nbytes, 0) // 1024)))


def allreduce(
    ctx: "XBRTime",
    dest: int,
    src: int,
    nelems: int,
    stride: int,
    op: str,
    dtype: np.dtype,
    *,
    algorithm: str = "doubling",
    segments: int | None = None,
    group: Sequence[int] | None = None,
) -> None:
    """Reduction-to-all: every PE ends with the full reduction at
    ``dest`` (which may be private — each PE writes its own copy
    locally).  ``algorithm`` is ``"doubling"`` (latency-optimal),
    ``"rabenseifner"`` or ``"ring"`` (bandwidth-optimal),
    ``"dual-pipelined"`` (pipelined dual-root trees, ``segments``
    chunks in flight) or ``"auto"``."""
    prepare_allreduce(
        ctx, dest, src, nelems, stride, op, dtype, algorithm=algorithm,
        segments=segments, group=group,
    ).run(ctx)


def prepare_allreduce(
    ctx: "XBRTime",
    dest: int,
    src: int,
    nelems: int,
    stride: int,
    op: str,
    dtype: np.dtype,
    *,
    algorithm: str = "doubling",
    segments: int | None = None,
    group: Sequence[int] | None = None,
) -> PreparedCollective:
    """Validate, select and compile — everything but the execution."""
    validate_counts(nelems, stride)
    check_op(op, dtype)
    if segments is not None and segments < 1:
        raise CollectiveArgumentError("segments must be >= 1")
    members, me = resolve_group(ctx, group)
    n_pes = len(members)
    if n_pes > 1 and not ctx.is_symmetric(src):
        raise CollectiveArgumentError(
            "allreduce src must be a symmetric address"
        )
    if algorithm == "auto":
        from .tuning import select_algorithm

        algorithm = select_algorithm(
            "allreduce", nelems * dtype.itemsize, n_pes,
            ctx.config.topology,
        )
    if algorithm not in ALGORITHMS:
        raise CollectiveArgumentError(
            f"unknown allreduce algorithm {algorithm!r}"
        )
    sched = compile_allreduce(n_pes, nelems, stride, dtype.itemsize, op,
                              algorithm=algorithm, segments=segments)
    attrs = call_attrs(ctx, dtype, algorithm=algorithm, op=op, nelems=nelems)
    if algorithm == "dual-pipelined":
        attrs["segments"] = segments or auto_segments(nelems * dtype.itemsize)
    return PreparedCollective(
        name="allreduce", members=members, me=me, dtype=dtype,
        attrs=attrs,
        schedule=sched, bindings={"dest": dest, "src": src},
        stats_key=f"allreduce:{algorithm}", stats_rank=0,
    )


def compile_allreduce(n_pes: int, nelems: int, stride: int, itemsize: int,
                      op: str, *, algorithm: str = "doubling",
                      segments: int | None = None) -> Schedule:
    """Compile one allreduce call shape into a schedule (pure, cached).

    ``segments`` only applies to ``"dual-pipelined"`` (``None`` picks
    :func:`auto_segments` for the payload).
    """
    if algorithm in ("doubling", "rabenseifner"):
        return _compile_folded(n_pes, nelems, stride, itemsize, op,
                               algorithm)
    if algorithm == "ring":
        return _compile_ring(n_pes, nelems, stride, itemsize, op)
    if algorithm == "dual-pipelined":
        if segments is None:
            segments = auto_segments(nelems * itemsize)
        return _compile_dual_pipelined(n_pes, nelems, stride, itemsize, op,
                                       segments)
    raise CollectiveArgumentError(
        f"unknown allreduce algorithm {algorithm!r}"
    )


def _degenerate(n_pes: int, nelems: int, stride: int, itemsize: int,
                op: str, algorithm: str) -> Schedule:
    nbytes = span_bytes(nelems, stride, itemsize)
    programs = tuple(
        RankProgram(r, (Copy("dest", 0, "src", 0, nelems, stride), BARRIER))
        for r in range(n_pes)
    )
    return Schedule(
        collective="allreduce", algorithm=algorithm, n_pes=n_pes,
        itemsize=itemsize, op=op,
        buffers=(Buffer("dest", "user", nbytes),
                 Buffer("src", "user", nbytes)),
        programs=programs,
        deliver=tuple((r, "dest", 0, nbytes) for r in range(n_pes))
        if nbytes else (),
    )


def _buffers(nbytes: int, double: bool) -> tuple[Buffer, ...]:
    scratch = (Buffer("a", "scratch", nbytes, symmetric=True),)
    if double:
        scratch += (Buffer("b", "scratch", nbytes, symmetric=True),)
    return (
        Buffer("dest", "user", nbytes),
        Buffer("src", "user", nbytes),
    ) + scratch + (Buffer("l", "private", nbytes),)


@lru_cache(maxsize=512)
def _compile_folded(n_pes: int, nelems: int, stride: int, itemsize: int,
                    op: str, algorithm: str) -> Schedule:
    """Doubling / Rabenseifner over the MPICH power-of-two fold."""
    if nelems == 0 or n_pes == 1:
        return _degenerate(n_pes, nelems, stride, itemsize, op, algorithm)
    nbytes = span_bytes(nelems, stride, itemsize)
    pof2 = 1 << (n_pes.bit_length() - 1)
    if pof2 * 2 <= n_pes:  # n_pes is an exact power of two
        pof2 = n_pes
    rem = n_pes - pof2
    k = n_stages(pof2)

    def unfold(new: int) -> int:
        return new * 2 if new < rem else new + rem

    programs = []
    for r in range(n_pes):
        prologue: list = [Copy("a", 0, "src", 0, nelems, stride), BARRIER]
        # Fold the remainder into the largest power-of-two subset: even
        # front ranks absorb their odd neighbour's contribution.
        if r < 2 * rem and r % 2 == 0:
            prologue.append(Get("l", 0, "a", 0, nelems, stride, r + 1))
            prologue.append(Reduce("a", 0, "l", 0, nelems, stride, nelems))
        prologue.append(BARRIER)
        active = r >= 2 * rem or r % 2 == 0
        newrank = (r // 2) if r < 2 * rem else r - rem
        if algorithm == "doubling":
            stages, final = _doubling_stages(active, newrank, unfold, k,
                                             nelems, stride)
        else:
            stages, final = _rabenseifner_stages(active, newrank, unfold,
                                                 pof2, k, nelems, stride,
                                                 itemsize)
        # Push results back to the folded-out odd ranks (same address on
        # both sides thanks to the shared buffer parity).
        epilogue: list = []
        if r < 2 * rem and r % 2 == 0:
            epilogue.append(Put(final, 0, final, 0, nelems, stride, r + 1))
        epilogue.append(BARRIER)
        epilogue.append(Copy("dest", 0, final, 0, nelems, stride))
        programs.append(RankProgram(r, tuple(prologue), stages,
                                    tuple(epilogue)))
    return Schedule(
        collective="allreduce", algorithm=algorithm, n_pes=n_pes,
        itemsize=itemsize, op=op,
        buffers=_buffers(nbytes, double=algorithm == "doubling"),
        programs=tuple(programs),
        deliver=tuple((r, "dest", 0, nbytes) for r in range(n_pes)),
    )


#: Span attrs of the two halves of Rabenseifner and ring.
_REDUCE_SCATTER = (("phase", "reduce-scatter"),)
_ALLGATHER = (("phase", "allgather"),)


def _doubling_stages(active: bool, newrank: int, unfold, k: int,
                     nelems: int, stride: int) -> tuple[tuple, str]:
    """Recursive doubling: read the partner's *current* buffer, write the
    *next* — folded-out ranks idle through the stages but join every
    barrier and track the buffer parity, so the final buffer names the
    same scratch on every PE."""
    stages = []
    for i in range(k):
        cur, nxt = ("a", "b") if i % 2 == 0 else ("b", "a")
        steps: list = []
        if active:
            partner = unfold(newrank ^ (1 << i))
            steps.append(Get("l", 0, cur, 0, nelems, stride, partner))
            steps.append(Copy(nxt, 0, cur, 0, nelems, stride, charged=False))
            steps.append(Reduce(nxt, 0, "l", 0, nelems, stride, 2 * nelems))
        stages.append(closed_stage(i, steps))
    return tuple(stages), ("a" if k % 2 == 0 else "b")


def _rabenseifner_stages(active: bool, newrank: int, unfold, pof2: int,
                         k: int, nelems: int, stride: int,
                         itemsize: int) -> tuple[tuple, str]:
    """Reduce-scatter (recursive halving) + allgather (recursive
    doubling) over the active power-of-two subset.

    Every stage's remote reads target regions the local PE does not
    write in that stage (each side touches only its own kept/grown
    segment), so a single buffer plus per-stage barriers is safe — the
    schedule linter verifies the disjointness for every compiled shape.
    """
    if not active:
        return tuple(barrier_stage(i) for i in range(2 * k)), "a"

    def bound(rr: int) -> int:
        return nelems * rr // pof2

    def off(e: int) -> int:
        return e * stride * itemsize

    # Phase 1: reduce-scatter.  Track the rank range whose elements this
    # PE still accumulates; halve it every stage.
    stages = []
    lo_r, hi_r = 0, pof2
    trail: list[tuple[int, int, int]] = []  # (partner_new, keep_lo, keep_hi)
    for stage in range(k):
        half = (hi_r - lo_r) // 2
        if newrank < lo_r + half:
            partner_new = newrank + half
            keep_lo, keep_hi = lo_r, lo_r + half
        else:
            partner_new = newrank - half
            keep_lo, keep_hi = lo_r + half, hi_r
        e_lo, e_hi = bound(keep_lo), bound(keep_hi)
        steps: list = []
        if e_hi > e_lo:
            partner = unfold(partner_new)
            steps.append(Get("l", off(e_lo), "a", off(e_lo), e_hi - e_lo,
                             stride, partner))
            steps.append(Reduce("a", off(e_lo), "l", off(e_lo), e_hi - e_lo,
                                stride, e_hi - e_lo))
        stages.append(closed_stage(stage, steps, _REDUCE_SCATTER))
        trail.append((partner_new, keep_lo, keep_hi))
        lo_r, hi_r = keep_lo, keep_hi

    # Phase 2: allgather, replaying the recursion in reverse — fetch the
    # partner's (fully reduced) segment, doubling owned data each stage.
    for stage, (partner_new, keep_lo, keep_hi) in enumerate(reversed(trail),
                                                            start=k):
        partner = unfold(partner_new)
        # The partner owns the complement of my kept rank range within
        # the enclosing range of this (reversed) stage.
        span = keep_hi - keep_lo
        if partner_new < keep_lo:
            need_lo, need_hi = keep_lo - span, keep_lo
        else:
            need_lo, need_hi = keep_hi, keep_hi + span
        e_lo, e_hi = bound(need_lo), bound(need_hi)
        steps = []
        if e_hi > e_lo:
            steps.append(Get("a", off(e_lo), "a", off(e_lo), e_hi - e_lo,
                             stride, partner))
        stages.append(closed_stage(stage, steps, _ALLGATHER))
    return tuple(stages), "a"


@lru_cache(maxsize=512)
def _compile_ring(n_pes: int, nelems: int, stride: int, itemsize: int,
                  op: str) -> Schedule:
    """Segment-rotating ring allreduce (bandwidth-optimal).

    The payload is split into ``n_pes`` segments with the same
    ``nelems*i//n_pes`` bounds Rabenseifner uses.  Reduce-scatter: at
    step ``s`` rank ``r`` pulls segment ``(r-1-s) mod N`` from its left
    neighbour's running buffer and folds it, so after ``N-1`` steps rank
    ``r`` holds the *fully* reduced segment ``(r+1) mod N``.  Allgather:
    at step ``s`` rank ``r`` pulls the finished segment ``(r-s) mod N``
    from the left.  In every stage each rank writes only the segment it
    just pulled while its right neighbour reads a *different* segment —
    the disjointness the linter proves per stage.
    """
    if nelems == 0 or n_pes == 1:
        return _degenerate(n_pes, nelems, stride, itemsize, op, "ring")
    nbytes = span_bytes(nelems, stride, itemsize)

    def bound(i: int) -> int:
        return nelems * i // n_pes

    def off(e: int) -> int:
        return e * stride * itemsize

    programs = []
    for r in range(n_pes):
        left = ring_neighbor(r, n_pes, -1)
        prologue = (Copy("a", 0, "src", 0, nelems, stride), BARRIER)
        stages = []
        for s in range(n_pes - 1):
            seg = (r - 1 - s) % n_pes
            e_lo, e_hi = bound(seg), bound(seg + 1)
            steps: list = []
            if e_hi > e_lo:
                steps.append(Get("l", off(e_lo), "a", off(e_lo),
                                 e_hi - e_lo, stride, left))
                steps.append(Reduce("a", off(e_lo), "l", off(e_lo),
                                    e_hi - e_lo, stride, e_hi - e_lo))
            stages.append(closed_stage(s, steps, _REDUCE_SCATTER))
        for s in range(n_pes - 1):
            seg = (r - s) % n_pes
            e_lo, e_hi = bound(seg), bound(seg + 1)
            steps = []
            if e_hi > e_lo:
                steps.append(Get("a", off(e_lo), "a", off(e_lo),
                                 e_hi - e_lo, stride, left))
            stages.append(closed_stage(n_pes - 1 + s, steps, _ALLGATHER))
        epilogue = (Copy("dest", 0, "a", 0, nelems, stride),)
        programs.append(RankProgram(r, prologue, tuple(stages), epilogue))
    return Schedule(
        collective="allreduce", algorithm="ring", n_pes=n_pes,
        itemsize=itemsize, op=op,
        buffers=_buffers(nbytes, double=False),
        programs=tuple(programs),
        deliver=tuple((r, "dest", 0, nbytes) for r in range(n_pes)),
    )


def _heap_depth(v: int) -> int:
    """Depth of virtual rank ``v`` in the heap-ordered binary tree."""
    return (v + 1).bit_length() - 1


@lru_cache(maxsize=512)
def _compile_dual_pipelined(n_pes: int, nelems: int, stride: int,
                            itemsize: int, op: str,
                            segments: int) -> Schedule:
    """Doubly-pipelined dual-root tree allreduce (Träff).

    Two heap-ordered binary trees over virtual ranks — tree 0 rooted at
    rank 0, tree 1 at rank N/2, so a rank that is inner in one tree is
    (almost always) a leaf in the other.  Even payload segments reduce
    up and broadcast down tree 0, odd segments tree 1.  Everything is
    one :class:`~.schedule.ir.Pipeline` block of ``2·depth`` step
    groups:

    * reduce group ``depth-1-d`` — parents at depth ``d`` pull each
      child's accumulated segment chunk (the child folded it one round
      earlier: cross-segment ordering) and fold it into scratch ``a``;
    * broadcast group ``depth+d`` — children at depth ``d+1`` pull the
      finished chunk from their parent (the root's ``a``, inner ranks'
      ``b``) into scratch ``b``.

    Round ``t`` of the lowered wavefront runs segment ``t-g`` of every
    group ``g``, so the broadcast of one segment overlaps the reduce of
    later ones — "doubly pipelined".  All per-round hazards are
    parity/segment-disjoint, which the schedule linter proves for every
    compiled shape.
    """
    if nelems == 0 or n_pes == 1:
        return _degenerate(n_pes, nelems, stride, itemsize, op,
                           "dual-pipelined")
    nbytes = span_bytes(nelems, stride, itemsize)
    S = max(1, min(segments, nelems))
    roots = (0, n_pes // 2)
    depth_max = _heap_depth(n_pes - 1)
    n_groups = 2 * depth_max

    def off(e: int) -> int:
        return e * stride * itemsize

    programs = []
    for r in range(n_pes):
        groups = [[()] * S for _ in range(n_groups)]
        for k in range(S):
            root = roots[k % 2]
            v = (r - root) % n_pes
            d = _heap_depth(v)
            e_lo, e_hi = segment_bounds(nelems, S, k)
            ne = e_hi - e_lo
            if ne == 0:
                continue
            children = [c for c in (2 * v + 1, 2 * v + 2) if c < n_pes]
            if children:
                steps: list = []
                for c in children:
                    peer = (c + root) % n_pes
                    steps.append(Get("l", off(e_lo), "a", off(e_lo), ne,
                                     stride, peer))
                    steps.append(Reduce("a", off(e_lo), "l", off(e_lo), ne,
                                        stride, ne))
                groups[depth_max - 1 - d][k] = tuple(steps)
            if v > 0:
                parent_v = (v - 1) // 2
                peer = (parent_v + root) % n_pes
                srcbuf = "a" if parent_v == 0 else "b"
                groups[depth_max + d - 1][k] = (
                    Get("b", off(e_lo), srcbuf, off(e_lo), ne, stride, peer),
                )
        pipe = Pipeline(0, S, tuple(tuple(g) for g in groups),
                        attrs=(("phase", "dual-tree"),))
        # Unsegmented local copy-out: roots keep their tree's segments
        # in ``a``, every other rank received them in ``b``.
        epilogue: list = []
        for k in range(S):
            e_lo, e_hi = segment_bounds(nelems, S, k)
            if e_hi == e_lo:
                continue
            srcbuf = "a" if r == roots[k % 2] else "b"
            epilogue.append(Copy("dest", off(e_lo), srcbuf, off(e_lo),
                                 e_hi - e_lo, stride))
        programs.append(RankProgram(
            r, (Copy("a", 0, "src", 0, nelems, stride), BARRIER),
            (pipe,), tuple(epilogue)))
    return Schedule(
        collective="allreduce", algorithm="dual-pipelined", n_pes=n_pes,
        itemsize=itemsize, op=op,
        buffers=_buffers(nbytes, double=True),
        programs=tuple(programs),
        deliver=tuple((r, "dest", 0, nbytes) for r in range(n_pes)),
    )
