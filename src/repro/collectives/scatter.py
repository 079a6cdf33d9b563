"""Scatter (paper section 4.5, Algorithm 3), compiled to a schedule.

Distributes a *distinct* segment of the root's data to every PE, with
per-PE element counts (``pe_msgs``) and displacements into ``src``
(``pe_disp``) — more general than a fixed-size scatter.  Zero-count PEs
are fully supported: they receive nothing and contribute no message,
but still participate in every stage barrier.

Two complications the paper works through:

* each tree-stage message must carry not only the partner's own
  elements but those of all the partner's children, so they can be
  forwarded in later stages; and
* with a non-zero root the per-PE segments, ordered by *logical* rank in
  ``src``, are not contiguous in *virtual*-rank order — so the root
  first reorders the data by virtual rank into a shared buffer, using
  adjusted displacements ``adj_disp``, guaranteeing every stage needs
  exactly one contiguous ``put``.

The tree walk itself (stage order, partner selection, barrier per
stage) is identical to broadcast's recursive halving and comes from the
same :func:`~repro.collectives.binomial.tree_stages` oracle.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import CollectiveArgumentError
from .binomial import n_stages, tree_stages
from .common import call_attrs, resolve_group, validate_root
from .schedule.executor import PreparedCollective
from .schedule.ir import (
    BARRIER,
    Buffer,
    Copy,
    Put,
    RankProgram,
    Schedule,
    closed_stage,
)
from .virtual_rank import logical_rank, virtual_rank

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.context import XBRTime

__all__ = ["scatter", "prepare_scatter", "compile_scatter",
           "adjusted_displacements"]


def adjusted_displacements(
    pe_msgs: Sequence[int], root: int
) -> list[int]:
    """``adj_disp``: element offset of each *virtual* rank's segment in
    the virtual-rank-ordered buffer (one extra entry = total count)."""
    n_pes = len(pe_msgs)
    adj = [0] * (n_pes + 1)
    for vir in range(n_pes):
        log = (vir + root) % n_pes
        adj[vir + 1] = adj[vir] + pe_msgs[log]
    return adj


def _validate(pe_msgs: Sequence[int], pe_disp: Sequence[int], nelems: int,
              n_pes: int, what: str) -> None:
    if len(pe_msgs) != n_pes or len(pe_disp) != n_pes:
        raise CollectiveArgumentError(
            f"{what}: pe_msgs/pe_disp must have one entry per PE "
            f"({n_pes}), got {len(pe_msgs)}/{len(pe_disp)}"
        )
    if any(m < 0 for m in pe_msgs):
        raise CollectiveArgumentError(f"{what}: negative pe_msgs entry")
    if any(d < 0 for d in pe_disp):
        raise CollectiveArgumentError(f"{what}: negative pe_disp entry")
    total = sum(pe_msgs)
    if total != nelems:
        raise CollectiveArgumentError(
            f"{what}: sum(pe_msgs)={total} does not match nelems={nelems}"
        )


def scatter(
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
    """``xbrtime_TYPE_scatter(dest, src, pe_msgs, pe_disp, nelems, root)``."""
    prepare_scatter(ctx, dest, src, pe_msgs, pe_disp, nelems, root, dtype,
                    group=group).run(ctx)


def prepare_scatter(
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
    _validate(pe_msgs, pe_disp, nelems, n_pes, "scatter")
    sched = compile_scatter(n_pes, root, tuple(pe_msgs), tuple(pe_disp),
                            nelems, dtype.itemsize)
    return PreparedCollective(
        name="scatter", members=members, me=me, dtype=dtype,
        attrs=call_attrs(ctx, dtype, root=root, nelems=nelems),
        schedule=sched, bindings={"dest": dest, "src": src},
        stats_key="scatter:binomial", stats_rank=root,
    )


def _io_buffers(n_pes: int, root: int, counts: tuple[int, ...],
                disps: tuple[int, ...], itemsize: int,
                root_side: str) -> tuple[Buffer, Buffer]:
    """The per-rank ``dest`` extents and the root's strided buffer.

    ``root_side`` names which of dest/src carries the displaced layout
    on the root (``"src"`` for scatter, ``"dest"`` for gather).
    """
    per_rank = tuple(c * itemsize for c in counts)
    extent = max((d + c) for d, c in zip(disps, counts)) * itemsize \
        if any(counts) else 0
    flat = Buffer("dest" if root_side == "src" else "src", "user", per_rank)
    rooted = Buffer(root_side, "user", extent, ranks=(root,))
    return (flat, rooted) if root_side == "src" else (rooted, flat)


@lru_cache(maxsize=256)
def compile_scatter(n_pes: int, root: int, counts: tuple[int, ...],
                    disps: tuple[int, ...], nelems: int,
                    itemsize: int) -> Schedule:
    """Compile one scatter call shape into a schedule (pure, cached)."""
    eb = itemsize
    dest_buf, src_buf = _io_buffers(n_pes, root, counts, disps, eb, "src")
    deliver = tuple((r, "dest", 0, counts[r] * eb) for r in range(n_pes)
                    if counts[r])
    if nelems == 0:
        return Schedule(
            collective="scatter", algorithm="binomial", n_pes=n_pes,
            itemsize=eb, root=root, buffers=(dest_buf, src_buf),
            programs=tuple(RankProgram(r, (BARRIER,))
                           for r in range(n_pes)),
        )
    if n_pes == 1:
        steps: list = []
        if counts[0]:
            steps.append(Copy("dest", 0, "src", disps[0] * eb, counts[0], 1,
                              skip_noop=False))
        steps.append(BARRIER)
        return Schedule(
            collective="scatter", algorithm="binomial", n_pes=n_pes,
            itemsize=eb, root=root, buffers=(dest_buf, src_buf),
            programs=(RankProgram(0, tuple(steps)),), deliver=deliver,
        )
    adj = adjusted_displacements(counts, root)
    k = n_stages(n_pes)
    # Index each stage's pairs by sender so the per-rank loop below is
    # O(log N) per rank instead of rescanning all N-1 tree edges.
    stage_targets: list[dict[int, list[int]]] = []
    for pairs in tree_stages(n_pes, "halving"):
        by_sender: dict[int, list[int]] = {}
        for frm, to in pairs:
            by_sender.setdefault(frm, []).append(to)
        stage_targets.append(by_sender)
    programs = []
    for r in range(n_pes):
        vir = virtual_rank(r, root, n_pes)
        prologue: list = []
        if vir == 0:
            # Reorder src by virtual rank so every subtree is contiguous.
            for v in range(n_pes):
                log = logical_rank(v, root, n_pes)
                cnt = counts[log]
                if cnt:
                    prologue.append(Copy("s", adj[v] * eb, "src",
                                         disps[log] * eb, cnt, 1,
                                         skip_noop=False))
        stages = []
        for ordinal, by_sender in enumerate(stage_targets):
            i = k - 1 - ordinal  # the tree bit this stage halves over
            steps = []
            for to in by_sender.get(vir, ()):
                # The partner's segment plus those of its children.
                end = min(to + (1 << i), n_pes)
                msg_size = adj[end] - adj[to]
                if msg_size:
                    steps.append(Put("s", adj[to] * eb, "s",
                                     adj[to] * eb, msg_size, 1,
                                     logical_rank(to, root, n_pes)))
            stages.append(closed_stage(ordinal, steps))
        epilogue: tuple = ()
        if counts[r]:
            epilogue = (Copy("dest", 0, "s", adj[vir] * eb, counts[r], 1,
                             skip_noop=False),)
        programs.append(RankProgram(r, tuple(prologue), tuple(stages),
                                    epilogue))
    return Schedule(
        collective="scatter", algorithm="binomial", n_pes=n_pes,
        itemsize=eb, root=root,
        buffers=(dest_buf, src_buf,
                 Buffer("s", "scratch", nelems * eb, symmetric=True)),
        programs=tuple(programs), deliver=deliver,
    )
