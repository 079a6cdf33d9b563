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
  through the schedule IR's pipeline block, the
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

import numpy as np

from ..errors import CollectiveArgumentError
from .binomial import n_stages
from .common import span_bytes
from .schedule.ir import (
    AUX_COPY,
    AUX_MOVE,
    OP_COPY,
    OP_GET,
    OP_PUT,
    OP_REDUCE,
    Buffer,
    Rows,
    Schedule,
    pipeline_skeleton,
    skeleton,
)

__all__ = ["compile_allreduce", "auto_segments"]


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


#: Buffer indices (``_buffers`` order); ``l`` comes after the scratch,
#: at ``_A + 1`` or, double-buffered, ``_B + 1``.
_DEST, _SRC, _A, _B = range(4)


def _degenerate(n_pes: int, nelems: int, stride: int, itemsize: int,
                op: str, algorithm: str) -> Schedule:
    nbytes = span_bytes(nelems, stride, itemsize)
    rows = Rows()
    rows.add(np.arange(n_pes), 0, 0, OP_COPY, (_DEST, 0), (_SRC, 0), nelems,
             stride, aux=AUX_COPY)
    return Schedule.from_rows(
        "allreduce", algorithm, n_pes, itemsize, rows, (skeleton(1, (), 0),),
        op=op,
        buffers=(Buffer("dest", "user", nbytes),
                 Buffer("src", "user", nbytes)),
        deliver=tuple((r, "dest", 0, nbytes) for r in range(n_pes))
        if nbytes else ())


def _buffers(nbytes: int, double: bool) -> tuple[Buffer, ...]:
    scratch = (Buffer("a", "scratch", nbytes, symmetric=True),)
    if double:
        scratch += (Buffer("b", "scratch", nbytes, symmetric=True),)
    return (
        Buffer("dest", "user", nbytes),
        Buffer("src", "user", nbytes),
    ) + scratch + (Buffer("l", "private", nbytes),)


def _schedule(algorithm: str, n_pes: int, nelems: int, stride: int,
              itemsize: int, op: str, rows: Rows, skeletons: tuple,
              skeleton_of=None) -> Schedule:
    nbytes = span_bytes(nelems, stride, itemsize)
    return Schedule.from_rows(
        "allreduce", algorithm, n_pes, itemsize, rows, skeletons,
        skeleton_of=skeleton_of, op=op,
        buffers=_buffers(nbytes, double=algorithm in ("doubling",
                                                      "dual-pipelined")),
        deliver=tuple((r, "dest", 0, nbytes) for r in range(n_pes)))


def _pull_and_fold(rows: Rows, rank, section, phase, lo, count, stride,
                   itemsize, peer, l_buf: int, where=None,
                   group=-1) -> None:
    """``rank`` gets ``count`` elements from ``lo`` of ``peer``'s ``a``
    into its ``l`` and folds them into its own ``a``: a get and a reduce,
    in that order, on every rank (``rank`` and the rest broadcast over a
    trailing axis of two).  Reduce-scatter pulls and folds the same
    way."""
    def pair(x):
        return np.asarray(x)[..., None]

    off = pair(lo * stride * itemsize)
    rows.add(pair(rank), pair(section), pair(phase), [OP_GET, OP_REDUCE],
             ([l_buf, _A], off), ([_A, l_buf], off), pair(count), stride,
             peer=np.stack(np.broadcast_arrays(peer, rank), -1),
             aux=np.stack(np.broadcast_arrays(0, count), -1),
             where=None if where is None else pair(where), group=group)


@lru_cache(maxsize=512)
def _compile_folded(n_pes: int, nelems: int, stride: int, itemsize: int,
                    op: str, algorithm: str) -> Schedule:
    """Doubling / Rabenseifner over the MPICH power-of-two fold."""
    if nelems == 0 or n_pes == 1:
        return _degenerate(n_pes, nelems, stride, itemsize, op, algorithm)
    pof2 = 1 << (n_pes.bit_length() - 1)
    if pof2 * 2 <= n_pes:  # n_pes is an exact power of two
        pof2 = n_pes
    rem = n_pes - pof2
    k = n_stages(pof2)
    l_buf = _B + 1 if algorithm == "doubling" else _A + 1
    ranks = np.arange(n_pes)
    rows = Rows()
    rows.add(ranks, 0, 0, OP_COPY, (_A, 0), (_SRC, 0), nelems, stride,
             aux=AUX_COPY)
    # Fold the remainder into the largest power-of-two subset: even
    # front ranks absorb their odd neighbour's contribution.
    evens = np.arange(0, 2 * rem, 2)
    _pull_and_fold(rows, evens, 0, 1, np.zeros_like(evens),
                   np.full_like(evens, nelems), stride, itemsize, evens + 1,
                   l_buf)
    active = ranks[(ranks >= 2 * rem) | (ranks % 2 == 0)]
    newrank = np.where(active < 2 * rem, active // 2, active - rem)

    def unfold(new):
        return np.where(new < rem, new * 2, new + rem)

    if algorithm == "doubling":
        n_st = _doubling(rows, active, newrank, unfold, k, nelems, stride,
                         l_buf)
        final = _A if k % 2 == 0 else _B
        skeletons = (skeleton(2, ((i, ()) for i in range(k)), 1),)
        skeleton_of = None
    else:
        n_st = _rabenseifner(rows, active, newrank, unfold, pof2, k, nelems,
                             stride, itemsize, l_buf)
        final = _A
        # Folded-out ranks idle through stages that carry no span attrs.
        skeletons = (
            skeleton(2, [(i, _REDUCE_SCATTER) for i in range(k)]
                     + [(i, _ALLGATHER) for i in range(k, 2 * k)], 1),
            skeleton(2, ((i, ()) for i in range(2 * k)), 1))
        skeleton_of = np.ones(n_pes, dtype=np.int64)
        skeleton_of[active] = 0
    # Push results back to the folded-out odd ranks (same address on
    # both sides thanks to the shared buffer parity), then every rank
    # copies out.
    rows.add(evens, n_st + 1, n_st + 2, OP_PUT, (final, 0), (final, 0),
             nelems, stride, peer=evens + 1)
    rows.add(ranks, n_st + 1, n_st + 3, OP_COPY, (_DEST, 0), (final, 0),
             nelems, stride, aux=AUX_COPY)
    return _schedule(algorithm, n_pes, nelems, stride, itemsize, op, rows,
                     skeletons, skeleton_of)


#: Span attrs of the two halves of Rabenseifner and ring.
_REDUCE_SCATTER = (("phase", "reduce-scatter"),)
_ALLGATHER = (("phase", "allgather"),)


def _doubling(rows: Rows, active, newrank, unfold, k: int, nelems: int,
              stride: int, l_buf: int) -> int:
    """Recursive doubling: read the partner's *current* buffer, write the
    *next* — folded-out ranks idle through the stages but join every
    barrier and track the buffer parity, so the final buffer names the
    same scratch on every PE."""
    for i in range(k):
        cur, nxt = (_A, _B) if i % 2 == 0 else (_B, _A)
        partner = unfold(newrank ^ (1 << i))
        rows.add(active[:, None], i + 1, i + 2, [OP_GET, OP_COPY, OP_REDUCE],
                 ([l_buf, nxt, nxt], 0), ([cur, cur, l_buf], 0), nelems,
                 stride, peer=np.stack((partner, active, active), axis=1),
                 aux=[0, AUX_MOVE, 2 * nelems])
    return k


def _rabenseifner(rows: Rows, active, newrank, unfold, pof2: int, k: int,
                  nelems: int, stride: int, itemsize: int, l_buf: int) -> int:
    """Reduce-scatter (recursive halving) + allgather (recursive
    doubling) over the active power-of-two subset.

    Reduce-scatter stage ``s`` splits the rank range a PE still
    accumulates at bit ``j = k-1-s``: it keeps the half holding its own
    new rank and folds that half from the partner across the bit.
    Allgather stage ``k + j`` replays bit ``j`` in reverse, fetching the
    partner's fully reduced half.  Every stage's remote reads target
    regions the local PE does not write in that stage, so a single
    buffer plus per-stage barriers is safe — the schedule linter
    verifies the disjointness for every compiled shape.
    """
    for s in range(k):
        j = k - 1 - s
        keep_lo = newrank >> j << j
        e_lo = nelems * keep_lo // pof2
        e_hi = nelems * (keep_lo + (1 << j)) // pof2
        _pull_and_fold(rows, active, s + 1, s + 2, e_lo, e_hi - e_lo,
                       stride, itemsize, unfold(newrank ^ (1 << j)), l_buf,
                       where=e_hi > e_lo)
    for j in range(k):
        # The partner owns the complement of my kept rank range within
        # the enclosing range of this (reversed) stage.
        keep_lo = newrank >> j << j
        need_lo = np.where(newrank >> j & 1, keep_lo - (1 << j),
                           keep_lo + (1 << j))
        e_lo = nelems * need_lo // pof2
        e_hi = nelems * (need_lo + (1 << j)) // pof2
        off = e_lo * stride * itemsize
        rows.add(active, k + j + 1, k + j + 2, OP_GET, (_A, off), (_A, off),
                 e_hi - e_lo, stride, peer=unfold(newrank ^ (1 << j)),
                 where=e_hi > e_lo)
    return 2 * k


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
    ranks = np.arange(n_pes)[:, None]
    left = (ranks - 1) % n_pes
    steps = np.arange(n_pes - 1)
    rows = Rows()
    rows.add(ranks, 0, 0, OP_COPY, (_A, 0), (_SRC, 0), nelems, stride,
             aux=AUX_COPY)
    seg = (ranks - 1 - steps) % n_pes
    e_lo = nelems * seg // n_pes
    count = nelems * (seg + 1) // n_pes - e_lo
    _pull_and_fold(rows, ranks, steps + 1, steps + 1, e_lo, count, stride,
                   itemsize, left, _A + 1, where=count > 0)
    seg = (ranks - steps) % n_pes
    e_lo = nelems * seg // n_pes
    count = nelems * (seg + 1) // n_pes - e_lo
    off = e_lo * stride * itemsize
    rows.add(ranks, n_pes + steps, n_pes + steps, OP_GET, (_A, off),
             (_A, off), count, stride, peer=left, where=count > 0)
    rows.add(ranks, 2 * n_pes - 1, 2 * n_pes - 1, OP_COPY, (_DEST, 0),
             (_A, 0), nelems, stride, aux=AUX_COPY)
    return _schedule(
        "ring", n_pes, nelems, stride, itemsize, op, rows,
        (skeleton(1, [(s, _REDUCE_SCATTER) for s in range(n_pes - 1)]
                  + [(s, _ALLGATHER) for s in range(n_pes - 1,
                                                     2 * n_pes - 2)], 0),))


def _heap_depth(v: np.ndarray) -> np.ndarray:
    """Depth of each virtual rank ``v`` in the heap-ordered binary
    tree: ``floor(log2(v + 1))``."""
    return np.frexp(v + 1)[1] - 1


@lru_cache(maxsize=512)
def _compile_dual_pipelined(n_pes: int, nelems: int, stride: int,
                            itemsize: int, op: str,
                            segments: int) -> Schedule:
    """Doubly-pipelined dual-root tree allreduce (Träff).

    Two heap-ordered binary trees over virtual ranks — tree 0 rooted at
    rank 0, tree 1 at rank N/2, so a rank that is inner in one tree is
    (almost always) a leaf in the other.  Even payload segments reduce
    up and broadcast down tree 0, odd segments tree 1.  Everything is
    one pipeline block of ``2·depth`` step
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
    S = max(1, min(segments, nelems))
    roots = np.where(np.arange(S) % 2, n_pes // 2, 0)
    # Segment k is elements [bounds[k], bounds[k+1]): the balanced split
    # of the ring and Rabenseifner bounds.
    bounds = nelems * np.arange(S + 1) // S
    depth_max = int(_heap_depth(n_pes - 1))
    n_groups = 2 * depth_max
    l_buf = _B + 1
    ranks = np.arange(n_pes)
    rows = Rows()
    rows.add(ranks, 0, 0, OP_COPY, (_A, 0), (_SRC, 0), nelems, stride,
             aux=AUX_COPY)
    for t in range(n_groups + S - 1):
        for g in range(max(0, t - S + 1), min(t, n_groups - 1) + 1):
            k = t - g
            root = roots[k]
            v = (ranks - root) % n_pes
            lo, count = bounds[k], bounds[k + 1] - bounds[k]
            if g < depth_max:  # parents at depth depth_max-1-g fold
                child = 2 * v[:, None] + np.array([1, 2])
                _pull_and_fold(
                    rows, ranks[:, None], 1 + t, 1 + t, lo, count, stride,
                    itemsize, (child + root) % n_pes, l_buf,
                    where=(_heap_depth(v) == depth_max - 1 - g)[:, None]
                    & (child < n_pes), group=g)
                continue
            # Children at depth g-depth_max+1 pull from their parent.
            parent = (v - 1) // 2
            off = lo * stride * itemsize
            rows.add(ranks, 1 + t, 1 + t, OP_GET, (_B, off),
                     (np.where(parent == 0, _A, _B), off), count, stride,
                     peer=(parent + root) % n_pes,
                     where=(v > 0) & (_heap_depth(v) == g - depth_max + 1),
                     group=g)
    # Unsegmented local copy-out: roots keep their tree's segments in
    # ``a``, every other rank received them in ``b``.
    off = bounds[:-1] * stride * itemsize
    rows.add(ranks[:, None], n_groups + S, n_groups + S, OP_COPY,
             (_DEST, off),
             (np.where(ranks[:, None] == roots, _A, _B), off),
             np.diff(bounds), stride, aux=AUX_COPY)
    return _schedule(
        "dual-pipelined", n_pes, nelems, stride, itemsize, op, rows,
        (pipeline_skeleton(1, S, n_groups, (("phase", "dual-tree"),), 0),))
