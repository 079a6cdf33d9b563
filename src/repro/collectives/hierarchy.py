"""Location-aware hierarchical collectives (paper section 7).

The paper lists "location aware communication optimization using the
xBGAS OLB" as future work: the OLB already knows which node hosts every
object, so a collective can route data node-by-node instead of treating
all PEs as equidistant.

These collectives run in two levels:

* **inter-node** — a binomial tree over one *leader* PE per node (the
  root's node is led by the root itself, so the data never takes an
  extra intra-node hop);
* **intra-node** — a binomial tree among each node's PEs, rooted at its
  leader, over the cheap intra-node path.

With the paper's sequential rank assignment, plain recursive halving is
already near-optimal (it crosses the node boundary only ⌈log₂ nodes⌉
times); the hierarchical variant matters when ranks are *scattered*
across nodes — e.g. a round-robin placement — where the flat tree pays
an inter-node hop at almost every edge.
``benchmarks/bench_ablation_locality.py`` quantifies both placements.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from .common import (
    call_attrs,
    collective_span,
    resolve_group,
    span_bytes,
    validate_root,
)
from .broadcast import run_binomial as _bcast_tree
from .reduce import run_binomial as _reduce_tree

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.context import XBRTime

__all__ = ["node_layout", "broadcast_hierarchical", "reduce_hierarchical"]


def node_layout(ctx: "XBRTime", members: Sequence[int],
                root_world: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """Group ``members`` by hosting node.

    Returns ``(groups, leaders)`` where each group is the tuple of world
    ranks of one node (only nodes with members) and ``leaders[i]`` is
    the group's leader — the root for its node, the lowest rank
    elsewhere.
    """
    cfg = ctx.config
    by_node: dict[int, list[int]] = {}
    for r in members:
        by_node.setdefault(cfg.node_of(r), []).append(r)
    groups: list[tuple[int, ...]] = []
    leaders: list[int] = []
    for node in sorted(by_node):
        grp = tuple(sorted(by_node[node]))
        groups.append(grp)
        leaders.append(root_world if root_world in grp else grp[0])
    return groups, leaders


def broadcast_hierarchical(
    ctx: "XBRTime",
    dest: int,
    src: int,
    nelems: int,
    stride: int,
    root: int,
    dtype: np.dtype,
    *,
    group: Sequence[int] | None = None,
) -> None:
    """Two-level broadcast: leaders first, then within each node."""
    members, me = resolve_group(ctx, group)
    validate_root(root, len(members))
    root_world = members[root]
    groups, leaders = node_layout(ctx, members, root_world)
    if len(groups) <= 1:
        _bcast_tree(ctx, dest, src, nelems, stride, root, dtype,
                    tuple(members), me)
        return
    my_world = ctx.rank
    my_group = next(g for g in groups if my_world in g)
    my_leader = leaders[groups.index(my_group)]
    # Inter-node stage: binomial over the leaders, rooted at the root.
    if my_world in leaders:
        with collective_span(ctx, "broadcast.inter", tuple(leaders),
                             **call_attrs(ctx, dtype,
                                          root=leaders.index(root_world),
                                          nelems=nelems)):
            _bcast_tree(
                ctx, dest, src, nelems, stride, leaders.index(root_world),
                dtype, tuple(leaders), leaders.index(my_world),
            )
    # Intra-node stage: each node fans out from its leader, reading the
    # data the leader just received into dest (or src on the root).
    local_src = src if my_world == root_world else dest
    with collective_span(ctx, "broadcast.intra", my_group,
                         **call_attrs(ctx, dtype,
                                      root=my_group.index(my_leader),
                                      nelems=nelems)):
        _bcast_tree(
            ctx, dest, local_src, nelems, stride, my_group.index(my_leader),
            dtype, my_group, my_group.index(my_world),
        )


def reduce_hierarchical(
    ctx: "XBRTime",
    dest: int,
    src: int,
    nelems: int,
    stride: int,
    root: int,
    op: str,
    dtype: np.dtype,
    *,
    group: Sequence[int] | None = None,
) -> None:
    """Two-level reduction: within each node first, then across leaders."""
    members, me = resolve_group(ctx, group)
    validate_root(root, len(members))
    root_world = members[root]
    groups, leaders = node_layout(ctx, members, root_world)
    if len(groups) <= 1:
        _reduce_tree(ctx, dest, src, nelems, stride, root, op, dtype,
                     tuple(members), me)
        return
    my_world = ctx.rank
    my_group = next(g for g in groups if my_world in g)
    my_leader = leaders[groups.index(my_group)]
    # Intra-node partials land in symmetric scratch (the second stage
    # reads them one-sidedly from the leaders).
    nbytes = max(span_bytes(max(nelems, 1), stride, dtype.itemsize), 16)
    partial = ctx.scratch_alloc(nbytes)
    with collective_span(ctx, "reduce.intra", my_group,
                         **call_attrs(ctx, dtype,
                                      root=my_group.index(my_leader), op=op,
                                      nelems=nelems)):
        _reduce_tree(
            ctx, partial, src, nelems, stride, my_group.index(my_leader), op,
            dtype, my_group, my_group.index(my_world),
        )
    if my_world in leaders:
        with collective_span(ctx, "reduce.inter", tuple(leaders),
                             **call_attrs(ctx, dtype,
                                          root=leaders.index(root_world),
                                          op=op, nelems=nelems)):
            _reduce_tree(
                ctx, dest, partial, nelems, stride,
                leaders.index(root_world), op, dtype, tuple(leaders),
                leaders.index(my_world),
            )
    ctx.scratch_free(partial)
