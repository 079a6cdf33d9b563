"""Reduction (paper section 4.4, Algorithm 2), compiled to a schedule.

Binomial tree with recursive doubling: the pairings come from
:func:`~repro.collectives.binomial.tree_stages` in the ``"doubling"``
direction — each stage's parent *gets* its child's accumulated values
and folds them with the reduction operator, moving data from the leaves
toward the root.

Buffers: every PE first copies its contribution into a *shared* scratch
buffer ``s`` (so partners can read it one-sidedly) and receives partner
data into a *private* ``l`` — exactly the two extra variables the paper
introduces "to prevent any unintended overwriting of values on any PE".
An initial barrier orders the ``s`` loads before the first stage's gets.

Note one deliberate deviation from the paper's *pseudocode*: Algorithm 2
reads ``get(l_buff, src, ...)``, but fetching the partner's original
``src`` would lose the partner's accumulated subtree — the get must (and
here does) read the partner's ``s``, matching the surrounding prose
("reduction values ... and the aggregate results of previous
iterations").

Supported operators: sum/prod/min/max for all Table 1 types, plus
bitwise and/or/xor for the non-floating-point types (section 4.4).
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import CollectiveArgumentError
from .binomial import tree_stages
from .common import (
    call_attrs,
    resolve_group,
    span_bytes,
    validate_counts,
    validate_root,
)
from .ops import check_op
from .schedule.executor import PreparedCollective, execute_schedule
from .schedule.ir import (
    BARRIER,
    Buffer,
    Copy,
    Get,
    RankProgram,
    Reduce,
    Schedule,
    closed_stage,
)
from .virtual_rank import logical_rank, virtual_rank

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.context import XBRTime

__all__ = ["reduce", "prepare_reduce", "compile_reduce"]

#: Algorithms :func:`compile_reduce` accepts.
ALGORITHMS = ("binomial", "linear")


def reduce(
    ctx: "XBRTime",
    dest: int,
    src: int,
    nelems: int,
    stride: int,
    root: int,
    op: str,
    dtype: np.dtype,
    *,
    algorithm: str = "binomial",
    group: Sequence[int] | None = None,
) -> None:
    """``xbrtime_TYPE_reduce_OP(dest, src, nelems, stride, root)``.

    ``src`` must be a symmetric address (partners read it / the shared
    scratch one-sidedly); ``dest`` is significant only on the root and
    may be private.
    """
    prepare_reduce(
        ctx, dest, src, nelems, stride, root, op, dtype,
        algorithm=algorithm, group=group,
    ).run(ctx)


def prepare_reduce(
    ctx: "XBRTime",
    dest: int,
    src: int,
    nelems: int,
    stride: int,
    root: int,
    op: str,
    dtype: np.dtype,
    *,
    algorithm: str = "binomial",
    group: Sequence[int] | None = None,
) -> PreparedCollective:
    """Validate, select and compile — everything but the execution."""
    validate_counts(nelems, stride)
    check_op(op, dtype)
    members, me = resolve_group(ctx, group)
    n_pes = len(members)
    validate_root(root, n_pes)
    if n_pes > 1 and not ctx.is_symmetric(src):
        raise CollectiveArgumentError(
            f"reduce src {src:#x} must be a symmetric (shared-segment) "
            "address (paper section 4.4)"
        )
    if algorithm == "auto":
        from .tuning import select_algorithm

        algorithm = select_algorithm(
            "reduce", nelems * dtype.itemsize, n_pes,
            ctx.config.topology,
        )
    attrs = call_attrs(ctx, dtype, algorithm=algorithm, root=root, op=op,
                       nelems=nelems)
    if algorithm == "hierarchical":
        from .hierarchy import reduce_hierarchical

        return PreparedCollective(
            name="reduce", members=members, me=me, dtype=dtype, attrs=attrs,
            stats_key=f"reduce:{op}:hierarchical", stats_rank=root,
            body=lambda c: reduce_hierarchical(
                c, dest, src, nelems, stride, root, op, dtype, group=group),
        )
    sched = compile_reduce(n_pes, root, nelems, stride, dtype.itemsize, op,
                           algorithm=algorithm)
    return PreparedCollective(
        name="reduce", members=members, me=me, dtype=dtype, attrs=attrs,
        schedule=sched, bindings={"dest": dest, "src": src},
        stats_key=f"reduce:{op}:{algorithm}", stats_rank=root,
    )


def run_binomial(ctx: "XBRTime", dest: int, src: int, nelems: int,
                 stride: int, root: int, op: str, dtype: np.dtype,
                 members: tuple[int, ...], me: int) -> None:
    """Execute the binomial tree as a bare sub-schedule (no outer span).

    The hierarchical two-level reduction composes compiled trees inside
    its own ``reduce.intra``/``reduce.inter`` spans.
    """
    sched = compile_reduce(len(members), root, nelems, stride,
                           dtype.itemsize, op)
    execute_schedule(ctx, sched, tuple(members), me,
                     {"dest": dest, "src": src}, dtype)


def compile_reduce(n_pes: int, root: int, nelems: int, stride: int,
                   itemsize: int, op: str, *,
                   algorithm: str = "binomial") -> Schedule:
    """Compile one reduce call shape into a schedule (pure, cached)."""
    if algorithm == "binomial":
        return _compile_binomial(n_pes, root, nelems, stride, itemsize, op)
    if algorithm == "linear":
        return _compile_linear(n_pes, root, nelems, stride, itemsize, op)
    raise CollectiveArgumentError(f"unknown reduce algorithm {algorithm!r}")


def _degenerate(n_pes: int, root: int, nelems: int, stride: int,
                itemsize: int, op: str, algorithm: str) -> Schedule:
    """1 PE or empty payload: the root copies src→dest, everyone syncs."""
    nbytes = span_bytes(nelems, stride, itemsize)
    programs = []
    for r in range(n_pes):
        prologue: list = []
        if r == root:
            prologue.append(Copy("dest", 0, "src", 0, nelems, stride))
        prologue.append(BARRIER)
        programs.append(RankProgram(r, tuple(prologue)))
    return Schedule(
        collective="reduce", algorithm=algorithm, n_pes=n_pes,
        itemsize=itemsize, root=root, op=op,
        buffers=(Buffer("dest", "user", nbytes, ranks=(root,)),
                 Buffer("src", "user", nbytes)),
        programs=tuple(programs),
        deliver=((root, "dest", 0, nbytes),) if nbytes else (),
    )


@lru_cache(maxsize=512)
def _compile_binomial(n_pes: int, root: int, nelems: int, stride: int,
                      itemsize: int, op: str) -> Schedule:
    if nelems == 0 or n_pes == 1:
        return _degenerate(n_pes, root, nelems, stride, itemsize, op,
                           "binomial")
    nbytes = span_bytes(nelems, stride, itemsize)
    # Index each stage's pairs by parent so the per-rank loop below is
    # O(log N) per rank instead of rescanning all N-1 tree edges.
    stage_children: list[dict[int, list[int]]] = []
    for pairs in tree_stages(n_pes, "doubling"):
        by_parent: dict[int, list[int]] = {}
        for child, parent in pairs:
            by_parent.setdefault(parent, []).append(child)
        stage_children.append(by_parent)
    programs = []
    for r in range(n_pes):
        vir = virtual_rank(r, root, n_pes)
        # Load the shared buffer, then order every load before the first
        # stage's one-sided gets.
        prologue = (Copy("s", 0, "src", 0, nelems, stride), BARRIER)
        stages = []
        for i, by_parent in enumerate(stage_children):
            steps: list = []
            for child in by_parent.get(vir, ()):
                # Pull the child's *accumulated* values (see module
                # note) and fold them in.
                steps.append(Get("l", 0, "s", 0, nelems, stride,
                                 logical_rank(child, root, n_pes)))
                steps.append(Reduce("s", 0, "l", 0, nelems, stride,
                                    nelems))
            stages.append(closed_stage(i, steps))
        epilogue = (Copy("dest", 0, "s", 0, nelems, stride),) if vir == 0 \
            else ()
        programs.append(RankProgram(r, prologue, tuple(stages), epilogue))
    return Schedule(
        collective="reduce", algorithm="binomial", n_pes=n_pes,
        itemsize=itemsize, root=root, op=op,
        buffers=(Buffer("dest", "user", nbytes, ranks=(root,)),
                 Buffer("src", "user", nbytes),
                 Buffer("s", "scratch", nbytes, symmetric=True),
                 Buffer("l", "private", nbytes)),
        programs=tuple(programs),
        deliver=((root, "dest", 0, nbytes),),
    )


@lru_cache(maxsize=512)
def _compile_linear(n_pes: int, root: int, nelems: int, stride: int,
                    itemsize: int, op: str) -> Schedule:
    """Flat algorithm: the root gets and folds every PE's values."""
    if nelems == 0 or n_pes == 1:
        return _degenerate(n_pes, root, nelems, stride, itemsize, op,
                           "linear")
    nbytes = span_bytes(nelems, stride, itemsize)
    programs = []
    for r in range(n_pes):
        prologue: list = [Copy("s", 0, "src", 0, nelems, stride), BARRIER]
        if r == root:
            for other in range(n_pes):
                if other == root:
                    continue
                prologue.append(Get("l", 0, "s", 0, nelems, stride, other))
                prologue.append(Reduce("s", 0, "l", 0, nelems, stride,
                                       nelems))
            prologue.append(Copy("dest", 0, "s", 0, nelems, stride))
        programs.append(RankProgram(r, tuple(prologue), (), (BARRIER,)))
    return Schedule(
        collective="reduce", algorithm="linear", n_pes=n_pes,
        itemsize=itemsize, root=root, op=op,
        buffers=(Buffer("dest", "user", nbytes, ranks=(root,)),
                 Buffer("src", "user", nbytes),
                 Buffer("s", "scratch", nbytes, symmetric=True),
                 Buffer("l", "private", nbytes, ranks=(root,))),
        programs=tuple(programs),
        deliver=((root, "dest", 0, nbytes),),
    )
