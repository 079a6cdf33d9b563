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
stage) is identical to broadcast's recursive halving — the pairings of
:func:`~repro.collectives.binomial.tree_stages`, written as index
arithmetic over whole stages of virtual ranks, so the compiler emits
the schedule's step-table rows directly.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .binomial import n_stages
from .schedule.ir import (
    AUX_PLACE,
    OP_COPY,
    OP_PUT,
    Buffer,
    Rows,
    Schedule,
    skeleton,
)

__all__ = ["compile_scatter", "adjusted_displacements"]


def adjusted_displacements(
    pe_msgs: Sequence[int], root: int
) -> list[int]:
    """``adj_disp``: element offset of each *virtual* rank's segment in
    the virtual-rank-ordered buffer (one extra entry = total count)."""
    return np.concatenate(
        ([0], np.cumsum(np.roll(np.asarray(pe_msgs, dtype=np.int64),
                                -root)))).tolist()


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


#: Buffer indices of every scatter and gather schedule (``_io_buffers``
#: order, then the scratch).
_DEST, _SRC, _S = range(3)


def _one_block(collective: str, n_pes: int, root: int, buffers: tuple,
               nelems: int, itemsize: int, dst_off: int, src_off: int,
               count: int, deliver: tuple) -> Schedule:
    """No elements, or one PE: rank 0 copies its block (when there is
    one) and every rank joins one barrier."""
    rows = Rows()
    if nelems:
        rows.add(0, 0, 0, OP_COPY, (_DEST, dst_off), (_SRC, src_off), count,
                 aux=AUX_PLACE, where=count > 0)
    return Schedule.from_rows(
        collective, "binomial", n_pes, itemsize, rows, (skeleton(1, (), 0),),
        root=root, buffers=buffers, deliver=deliver if nelems else ())


@lru_cache(maxsize=256)
def compile_scatter(n_pes: int, root: int, counts: tuple[int, ...],
                    disps: tuple[int, ...], nelems: int,
                    itemsize: int) -> Schedule:
    """Compile one scatter call shape into a schedule (pure, cached).

    The root first copies ``src`` into the shared ``s`` in virtual-rank
    order (``adj_disp``), so stage ``o`` — the tree bit ``i = k-1-o``
    broadcast halves — is one contiguous put per sender ``vir`` of the
    partner ``vir + 2**i``'s segment and those of its children; every
    rank finally copies its own segment out of ``s``."""
    eb = itemsize
    buffers = _io_buffers(n_pes, root, counts, disps, eb, "src")
    deliver = tuple((r, "dest", 0, counts[r] * eb) for r in range(n_pes)
                    if counts[r])
    if nelems == 0 or n_pes == 1:
        return _one_block("scatter", n_pes, root, buffers, nelems, eb, 0,
                          disps[0] * eb, counts[0], deliver)
    count = np.array(counts)
    adj = np.array(adjusted_displacements(counts, root))
    k = n_stages(n_pes)
    rows = Rows()
    # Reorder src by virtual rank (virtual rank v is logical rank
    # (v + root) mod N) so every subtree is contiguous.
    ranks = np.arange(n_pes)
    log = (ranks + root) % n_pes
    rows.add(root, 0, 0, OP_COPY, (_S, adj[:-1] * eb),
             (_SRC, np.array(disps)[log] * eb), count[log], aux=AUX_PLACE,
             where=count[log] > 0)
    for o in range(k):
        bit = 1 << (k - 1 - o)
        to = np.arange(bit, n_pes, 2 * bit)
        # The partner's segment plus those of its children.
        size = adj[np.minimum(to + bit, n_pes)] - adj[to]
        rows.add((to - bit + root) % n_pes, o + 1, o, OP_PUT,
                 (_S, adj[to] * eb), (_S, adj[to] * eb), size,
                 peer=(to + root) % n_pes, where=size > 0)
    rows.add(ranks, k + 1, k, OP_COPY, (_DEST, 0),
             (_S, adj[(ranks - root) % n_pes] * eb), count, aux=AUX_PLACE,
             where=count > 0)
    return Schedule.from_rows(
        "scatter", "binomial", n_pes, eb, rows,
        (skeleton(0, ((o, ()) for o in range(k)), 0),), root=root,
        buffers=buffers + (Buffer("s", "scratch", nelems * eb,
                                  symmetric=True),),
        deliver=deliver)
