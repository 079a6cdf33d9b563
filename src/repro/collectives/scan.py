"""Parallel prefix scan over the one-sided runtime, compiled.

A natural companion to the paper's section 7 collective wish-list: the
Hillis-Steele inclusive scan in ⌈log₂N⌉ one-sided stages.  At stage
``i`` every PE with rank ≥ 2^i *gets* the running value of the PE
2^i to its left and folds it — index arithmetic over all ranks at
once, so the compiler emits the schedule's step-table rows directly;
double buffering plus a barrier per stage gives the same one-sided-read
safety as :mod:`~repro.collectives.allreduce`.

Both inclusive and exclusive variants are provided (exclusive shifts
the inclusive result by one rank, with the operator identity at rank
0 — which restricts exclusive scans to operators with an identity,
i.e. all of them except float bitwise, which are rejected anyway).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .binomial import n_stages
from .common import span_bytes
from .schedule.ir import (
    AUX_COPY,
    AUX_MOVE,
    OP_COPY,
    OP_FILL,
    OP_GET,
    OP_REDUCE,
    Buffer,
    Rows,
    Schedule,
    skeleton,
)

__all__ = ["compile_scan"]


#: Buffer indices of every scan schedule.
_DEST, _SRC, _A, _B, _L = range(5)


@lru_cache(maxsize=512)
def compile_scan(n_pes: int, nelems: int, stride: int, itemsize: int,
                 op: str, inclusive: bool) -> Schedule:
    """Compile one scan call shape into a schedule (pure, cached).

    Stage ``i`` double-buffers: every rank carries its running value
    from the current buffer into the next, and a rank with a left
    partner ``r - 2**i >= 0`` also gets the partner's current value and
    folds it in."""
    algorithm = "hillis-steele"
    nbytes = span_bytes(nelems, stride, itemsize)
    buffers = (Buffer("dest", "user", nbytes), Buffer("src", "user", nbytes))
    if nelems == 0:
        return Schedule.from_rows(
            "scan", algorithm, n_pes, itemsize, Rows(),
            (skeleton(1, (), 0),), op=op, buffers=buffers)
    k = n_stages(n_pes)
    ranks = np.arange(n_pes)
    rows = Rows()
    rows.add(ranks, 0, 0, OP_COPY, (_A, 0), (_SRC, 0), nelems, stride,
             aux=AUX_COPY)
    for i in range(k):
        cur, nxt = (_A, _B) if i % 2 == 0 else (_B, _A)
        # Carry the running value forward unconditionally, then fold in
        # the left partner's (if this rank has one this stage).
        left = ranks - (1 << i)
        rows.add(ranks[:, None], i + 1, i + 1, [OP_COPY, OP_GET, OP_REDUCE],
                 ([nxt, _L, nxt], 0), ([cur, cur, _L], 0), nelems, stride,
                 peer=np.stack((ranks, left, ranks), axis=1),
                 aux=[AUX_MOVE, 0, 2 * nelems],
                 where=np.stack((ranks >= 0, left >= 0, left >= 0), axis=1))
    final = _A if k % 2 == 0 else _B
    if inclusive:
        rows.add(ranks, k + 1, k + 1, OP_COPY, (_DEST, 0), (final, 0),
                 nelems, stride, aux=AUX_COPY)
    else:
        # Shift right by one rank: rank 0 takes the operator identity.
        rows.add(ranks, k + 1, k + 1, np.where(ranks == 0, OP_FILL, OP_GET),
                 (_DEST, 0), (np.where(ranks == 0, -1, final), 0), nelems,
                 stride, peer=np.maximum(ranks - 1, 0))
    return Schedule.from_rows(
        "scan", algorithm, n_pes, itemsize, rows,
        (skeleton(1, ((i, ()) for i in range(k)), 0 if inclusive else 1),),
        op=op,
        buffers=buffers + (Buffer("a", "scratch", nbytes, symmetric=True),
                           Buffer("b", "scratch", nbytes, symmetric=True),
                           Buffer("l", "private", nbytes)),
        deliver=tuple((r, "dest", 0, nbytes) for r in range(n_pes)))
