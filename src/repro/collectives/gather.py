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

import numpy as np

from .binomial import n_stages
from .scatter import (
    _DEST,
    _S,
    _SRC,
    _io_buffers,
    _one_block,
    adjusted_displacements,
)
from .schedule.ir import (
    AUX_PLACE,
    OP_COPY,
    OP_GET,
    Buffer,
    Rows,
    Schedule,
    skeleton,
)

__all__ = ["compile_gather"]


@lru_cache(maxsize=256)
def compile_gather(n_pes: int, root: int, counts: tuple[int, ...],
                   disps: tuple[int, ...], nelems: int,
                   itemsize: int) -> Schedule:
    """Compile one gather call shape into a schedule (pure, cached).

    Stage ``i`` (recursive doubling) has every virtual rank with its low
    ``i+1`` bits clear pull, from ``vir + 2**i`` when that exists, the
    partner's segment plus everything it aggregated — one contiguous get
    at the partner's ``adj_disp`` offset."""
    eb = itemsize
    buffers = _io_buffers(n_pes, root, counts, disps, eb, "dest")
    deliver = tuple((root, "dest", disps[i] * eb, (disps[i] + counts[i]) * eb)
                    for i in range(n_pes) if counts[i])
    if nelems == 0 or n_pes == 1:
        return _one_block("gather", n_pes, root, buffers, nelems, eb,
                          disps[0] * eb, 0, counts[0], deliver)
    count = np.array(counts)
    adj = np.array(adjusted_displacements(counts, root))
    k = n_stages(n_pes)
    rows = Rows()
    # Stage every contribution at its virtual-rank displacement; the
    # prologue's barrier orders the stores before the first stage's gets.
    ranks = np.arange(n_pes)
    rows.add(ranks, 0, 0, OP_COPY, (_S, adj[(ranks - root) % n_pes] * eb),
             (_SRC, 0), count, aux=AUX_PLACE, where=count > 0)
    for i in range(k):
        bit = 1 << i
        child = np.arange(bit, n_pes, 2 * bit)
        size = adj[np.minimum(child + bit, n_pes)] - adj[child]
        rows.add((child - bit + root) % n_pes, i + 1, i + 1, OP_GET,
                 (_S, adj[child] * eb), (_S, adj[child] * eb), size,
                 peer=(child + root) % n_pes, where=size > 0)
    # Reorder from virtual-rank order into dest by logical rank.
    log = (ranks + root) % n_pes
    rows.add(root, k + 1, k + 1, OP_COPY, (_DEST, np.array(disps)[log] * eb),
             (_S, adj[:-1] * eb), count[log], aux=AUX_PLACE,
             where=count[log] > 0)
    return Schedule.from_rows(
        "gather", "binomial", n_pes, eb, rows,
        (skeleton(1, ((i, ()) for i in range(k)), 0),), root=root,
        buffers=buffers + (Buffer("s", "scratch", nelems * eb,
                                  symmetric=True),),
        deliver=deliver)
