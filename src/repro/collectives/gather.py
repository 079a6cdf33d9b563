"""Gather (paper section 4.6, Algorithm 4), compiled to a schedule.

Symmetric to scatter in the same way reduction is to broadcast: the
tree runs with recursive doubling and one-sided ``get``, aggregating a
distinct number of elements from every PE toward the root.  ``pe_msgs``
gives the per-PE counts and ``pe_disp`` the displacements *into dest on
the root*.  Zero-count PEs contribute no staging store or tree message
but keep every stage barrier.

Each PE first stages its contribution in the shared buffer at its
adjusted (virtual-rank) displacement; each stage's receiver pulls the
partner's whole subtree segment in one contiguous ``get``; finally the
root reorders the virtual-rank-ordered buffer into ``dest`` by logical
rank.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .binomial import tree_stages
from .common import call_attrs, resolve_group, validate_root
from .scatter import _io_buffers, _validate, adjusted_displacements
from .schedule.executor import PreparedCollective
from .schedule.ir import (
    BARRIER,
    Buffer,
    Copy,
    Get,
    RankProgram,
    Schedule,
    closed_stage,
)
from .virtual_rank import logical_rank, virtual_rank

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.context import XBRTime

__all__ = ["gather", "prepare_gather", "compile_gather"]


def gather(
    ctx: "XBRTime",
    dest: int,
    src: int,
    pe_msgs: Sequence[int],
    pe_disp: Sequence[int],
    nelems: int,
    root: int,
    dtype: np.dtype,
    *,
    group: Sequence[int] | None = None,
) -> None:
    """``xbrtime_TYPE_gather(dest, src, pe_msgs, pe_disp, nelems, root)``."""
    prepare_gather(ctx, dest, src, pe_msgs, pe_disp, nelems, root, dtype,
                   group=group).run(ctx)


def prepare_gather(
    ctx: "XBRTime",
    dest: int,
    src: int,
    pe_msgs: Sequence[int],
    pe_disp: Sequence[int],
    nelems: int,
    root: int,
    dtype: np.dtype,
    *,
    group: Sequence[int] | None = None,
) -> PreparedCollective:
    """Validate and compile — everything but the execution."""
    members, me = resolve_group(ctx, group)
    n_pes = len(members)
    validate_root(root, n_pes)
    _validate(pe_msgs, pe_disp, nelems, n_pes, "gather")
    sched = compile_gather(n_pes, root, tuple(pe_msgs), tuple(pe_disp),
                           nelems, dtype.itemsize)
    return PreparedCollective(
        name="gather", members=members, me=me, dtype=dtype,
        attrs=call_attrs(ctx, dtype, root=root, nelems=nelems),
        schedule=sched, bindings={"dest": dest, "src": src},
        stats_key="gather:binomial", stats_rank=root,
    )


@lru_cache(maxsize=256)
def compile_gather(n_pes: int, root: int, counts: tuple[int, ...],
                   disps: tuple[int, ...], nelems: int,
                   itemsize: int) -> Schedule:
    """Compile one gather call shape into a schedule (pure, cached)."""
    eb = itemsize
    dest_buf, src_buf = _io_buffers(n_pes, root, counts, disps, eb, "dest")
    deliver = tuple((root, "dest", disps[i] * eb, (disps[i] + counts[i]) * eb)
                    for i in range(n_pes) if counts[i])
    if nelems == 0:
        return Schedule(
            collective="gather", algorithm="binomial", n_pes=n_pes,
            itemsize=eb, root=root, buffers=(dest_buf, src_buf),
            programs=tuple(RankProgram(r, (BARRIER,))
                           for r in range(n_pes)),
        )
    if n_pes == 1:
        steps: list = []
        if counts[0]:
            steps.append(Copy("dest", disps[0] * eb, "src", 0, counts[0], 1,
                              skip_noop=False))
        steps.append(BARRIER)
        return Schedule(
            collective="gather", algorithm="binomial", n_pes=n_pes,
            itemsize=eb, root=root, buffers=(dest_buf, src_buf),
            programs=(RankProgram(0, tuple(steps)),), deliver=deliver,
        )
    adj = adjusted_displacements(counts, root)
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
        # Stage this PE's contribution at its virtual-rank displacement,
        # then order every staging store before the first stage's gets.
        prologue: list = []
        if counts[r]:
            prologue.append(Copy("s", adj[vir] * eb, "src", 0, counts[r], 1,
                                 skip_noop=False))
        prologue.append(BARRIER)
        stages = []
        for i, by_parent in enumerate(stage_children):
            steps = []
            for child in by_parent.get(vir, ()):
                # The partner's segment plus everything it aggregated.
                end = min(child + (1 << i), n_pes)
                msg_size = adj[end] - adj[child]
                if msg_size:
                    steps.append(Get("s", adj[child] * eb, "s",
                                     adj[child] * eb, msg_size, 1,
                                     logical_rank(child, root, n_pes)))
            stages.append(closed_stage(i, steps))
        epilogue: list = []
        if vir == 0:
            # Reorder from virtual-rank order into dest by logical rank.
            for v in range(n_pes):
                log = logical_rank(v, root, n_pes)
                cnt = counts[log]
                if cnt:
                    epilogue.append(Copy("dest", disps[log] * eb, "s",
                                         adj[v] * eb, cnt, 1,
                                         skip_noop=False))
        programs.append(RankProgram(r, tuple(prologue), tuple(stages),
                                    tuple(epilogue)))
    return Schedule(
        collective="gather", algorithm="binomial", n_pes=n_pes,
        itemsize=eb, root=root,
        buffers=(dest_buf, src_buf,
                 Buffer("s", "scratch", nelems * eb, symmetric=True)),
        programs=tuple(programs), deliver=deliver,
    )
