"""Parallel prefix scan over the one-sided runtime, compiled.

A natural companion to the paper's section 7 collective wish-list: the
Hillis-Steele inclusive scan in ⌈log₂N⌉ one-sided stages.  At stage
``i`` every PE with rank ≥ 2^i *gets* the running value of the PE
2^i to its left (the partner arithmetic lives in
:func:`~repro.collectives.virtual_rank.hillis_steele_partner`) and
folds it; double buffering plus a barrier per stage gives the same
one-sided-read safety as :mod:`~repro.collectives.allreduce`.

Both inclusive and exclusive variants are provided (exclusive shifts
the inclusive result by one rank, with the operator identity at rank
0 — which restricts exclusive scans to operators with an identity,
i.e. all of them except float bitwise, which are rejected anyway).
"""

from __future__ import annotations

from functools import lru_cache
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
    Fill,
    Get,
    RankProgram,
    Reduce,
    Schedule,
    Stage,
)
from .virtual_rank import hillis_steele_partner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.context import XBRTime

__all__ = ["scan", "prepare_scan", "compile_scan"]


def scan(
    ctx: "XBRTime",
    dest: int,
    src: int,
    nelems: int,
    stride: int,
    op: str,
    dtype: np.dtype,
    *,
    inclusive: bool = True,
    group: Sequence[int] | None = None,
) -> None:
    """Prefix scan: PE k ends with ``src_0 OP src_1 OP ... OP src_k``
    (inclusive) or ``... OP src_{k-1}`` (exclusive; identity on PE 0)
    at its local ``dest``."""
    prepare_scan(ctx, dest, src, nelems, stride, op, dtype,
                 inclusive=inclusive, group=group).run(ctx)


def prepare_scan(
    ctx: "XBRTime",
    dest: int,
    src: int,
    nelems: int,
    stride: int,
    op: str,
    dtype: np.dtype,
    *,
    inclusive: bool = True,
    group: Sequence[int] | None = None,
) -> PreparedCollective:
    """Validate and compile — everything but the execution."""
    validate_counts(nelems, stride)
    check_op(op, dtype)
    members, me = resolve_group(ctx, group)
    n_pes = len(members)
    if n_pes > 1 and not ctx.is_symmetric(src):
        raise CollectiveArgumentError("scan src must be a symmetric address")
    kind = "inclusive" if inclusive else "exclusive"
    sched = compile_scan(n_pes, nelems, stride, dtype.itemsize, op,
                         inclusive)
    return PreparedCollective(
        name="scan", members=members, me=me, dtype=dtype,
        attrs=call_attrs(ctx, dtype, inclusive=inclusive, op=op,
                         nelems=nelems),
        schedule=sched, bindings={"dest": dest, "src": src},
        stats_key=f"scan:{kind}", stats_rank=0,
    )


@lru_cache(maxsize=512)
def compile_scan(n_pes: int, nelems: int, stride: int, itemsize: int,
                 op: str, inclusive: bool) -> Schedule:
    """Compile one scan call shape into a schedule (pure, cached)."""
    algorithm = "hillis-steele"
    nbytes = span_bytes(nelems, stride, itemsize)
    if nelems == 0:
        return Schedule(
            collective="scan", algorithm=algorithm, n_pes=n_pes,
            itemsize=itemsize, op=op,
            buffers=(Buffer("dest", "user", nbytes),
                     Buffer("src", "user", nbytes)),
            programs=tuple(RankProgram(r, (BARRIER,))
                           for r in range(n_pes)),
        )
    k = n_stages(n_pes)
    programs = []
    for r in range(n_pes):
        prologue = (Copy("a", 0, "src", 0, nelems, stride), BARRIER)
        stages = []
        for i in range(k):
            cur, nxt = ("a", "b") if i % 2 == 0 else ("b", "a")
            # Carry the running value forward unconditionally, then fold
            # in the left partner's (if this rank has one this stage).
            steps: list = [Copy(nxt, 0, cur, 0, nelems, stride,
                                charged=False)]
            left = hillis_steele_partner(r, i)
            if left is not None:
                steps.append(Get("l", 0, cur, 0, nelems, stride, left))
                steps.append(Reduce(nxt, 0, "l", 0, nelems, stride,
                                    2 * nelems))
            steps.append(BARRIER)
            stages.append(Stage(i, tuple(steps)))
        final = "a" if k % 2 == 0 else "b"
        if inclusive:
            epilogue: tuple = (Copy("dest", 0, final, 0, nelems, stride),)
        elif r == 0:
            # Shift right by one rank: rank 0 takes the operator identity.
            epilogue = (Fill("dest", 0, nelems, stride), BARRIER)
        else:
            epilogue = (Get("dest", 0, final, 0, nelems, stride, r - 1),
                        BARRIER)
        programs.append(RankProgram(r, prologue, tuple(stages), epilogue))
    return Schedule(
        collective="scan", algorithm=algorithm, n_pes=n_pes,
        itemsize=itemsize, op=op,
        buffers=(Buffer("dest", "user", nbytes),
                 Buffer("src", "user", nbytes),
                 Buffer("a", "scratch", nbytes, symmetric=True),
                 Buffer("b", "scratch", nbytes, symmetric=True),
                 Buffer("l", "private", nbytes)),
        programs=tuple(programs),
        deliver=tuple((r, "dest", 0, nbytes) for r in range(n_pes)),
    )
