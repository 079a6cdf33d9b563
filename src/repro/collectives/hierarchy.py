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
already near-optimal (it crosses the node boundary only nodes − 1
times); the hierarchical variant matters when ranks are *scattered*
across nodes — e.g. a round-robin placement — where the flat tree pays
an inter-node hop at almost every edge.  The ``locality`` sweep record
(:mod:`repro.bench.paper`) measures both placements.

Each is one schedule compiled for a node layout (``nodes[r]`` hosts
group rank ``r``): :func:`~.schedule.fuse.chain_schedules` runs the
leaders' tree and the node trees side by side as steps of one
partitioned schedule (``Section.block``) — a reduction's node trees
first, into a symmetric ``partial`` the leaders read.  A group on one
node is the flat binomial tree.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .broadcast import compile_broadcast
from .common import span_bytes
from .reduce import compile_reduce
from .schedule.fuse import chain_schedules
from .schedule.ir import Buffer, Schedule

__all__ = ["node_layout", "compile_hierarchical_broadcast",
           "compile_hierarchical_reduce"]


def node_layout(nodes: Sequence[int],
                root: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """``(groups, leaders)``: the ranks of each node with members, in
    node order, and each group's leader — the root for its node, the
    lowest rank elsewhere."""
    by_node: dict[int, list[int]] = {}
    for r, node in enumerate(nodes):
        by_node.setdefault(node, []).append(r)
    groups = [tuple(by_node[node]) for node in sorted(by_node)]
    return groups, [root if root in grp else grp[0] for grp in groups]


#: A part's buffers as the chain's: callers bind ``dest`` and ``src``.
_IO = {"dest": "dest", "src": "src"}


@lru_cache(maxsize=256)
def compile_hierarchical_broadcast(nodes: tuple, root: int, nelems: int,
                                   stride: int, itemsize: int,
                                   copy_to_root_dest: bool = True
                                   ) -> Schedule:
    """The leaders' tree, then each node's, which reads what its leader
    just received into ``dest`` (the root's node: ``src``)."""
    n = len(nodes)
    groups, leaders = node_layout(nodes, root)

    def tree(members, lead, names, copy=copy_to_root_dest):
        return (compile_broadcast(len(members), members.index(lead), nelems,
                                  stride, itemsize, copy_to_root_dest=copy),
                tuple(members), names)

    steps = [[tree(range(n), root, _IO)]] if len(groups) == 1 else [
        [tree(leaders, root, _IO)],
        [tree(grp, lead, _IO) if root in grp
         else tree(grp, lead, {"dest": "dest", "src": "dest"}, True)
         for grp, lead in zip(groups, leaders)]]
    return chain_schedules("broadcast", "hierarchical", n, steps, root=root)


@lru_cache(maxsize=256)
def compile_hierarchical_reduce(nodes: tuple, root: int, nelems: int,
                                stride: int, itemsize: int,
                                op: str) -> Schedule:
    """Each node's tree into every rank's symmetric ``partial``, then
    the leaders' tree out of it."""
    n = len(nodes)
    groups, leaders = node_layout(nodes, root)

    def tree(members, lead, names):
        return (compile_reduce(len(members), members.index(lead), nelems,
                               stride, itemsize, op), tuple(members), names)

    if len(groups) == 1:
        return chain_schedules("reduce", "hierarchical", n,
                               [[tree(range(n), root, _IO)]], root=root)
    partial = Buffer("partial", "scratch",
                     max(span_bytes(max(nelems, 1), stride, itemsize), 16),
                     symmetric=True)
    return chain_schedules("reduce", "hierarchical", n, [
        [tree(grp, lead, {"dest": "partial", "src": "src"})
         for grp, lead in zip(groups, leaders)],
        [tree(leaders, root, {"dest": "dest", "src": "partial"})]],
        buffers=(partial,), root=root)
