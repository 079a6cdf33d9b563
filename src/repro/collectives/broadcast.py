"""Broadcast (paper section 4.3, Algorithm 1), compiled to a schedule.

The binomial tree is expressed as a compiler: :func:`compile_broadcast`
turns ``(n_pes, root, nelems, stride)`` into a
:class:`~repro.collectives.schedule.Schedule` whose per-rank stages
carry exactly the puts the paper's mask loop produced — the pairings of
:func:`~repro.collectives.binomial.tree_stages`, written as index
arithmetic over whole stages of virtual ranks, so the compiler emits
the schedule's step-table rows directly.  The single schedule executor
then replays it (entry barrier, root's local copy, one put per stage
edge, barrier per stage).

``dest`` must be a symmetric address (it is written remotely on every
PE); ``src`` need only exist on the root.  Non-root senders forward out
of their own ``dest``, which holds the values they received in an
earlier stage.

Alternative algorithms (``linear``, ``ring``) are provided for the
algorithm-selection ablation (section 4.1: "no universally optimal
solution"); ``auto`` asks :mod:`~repro.collectives.tuning`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import CollectiveArgumentError
from .binomial import n_stages
from .common import span_bytes
from .schedule.ir import (
    AUX_COPY,
    OP_COPY,
    OP_PUT,
    Buffer,
    Rows,
    Schedule,
    Skeleton,
    skeleton,
)

__all__ = ["compile_broadcast"]


def compile_broadcast(n_pes: int, root: int, nelems: int, stride: int,
                      itemsize: int, *, algorithm: str = "binomial",
                      copy_to_root_dest: bool = True) -> Schedule:
    """Compile one broadcast call shape into a schedule (pure, cached)."""
    if algorithm == "binomial":
        return _compile_binomial(n_pes, root, nelems, stride, itemsize,
                                 copy_to_root_dest)
    if algorithm == "linear":
        return _compile_linear(n_pes, root, nelems, stride, itemsize,
                               copy_to_root_dest)
    if algorithm == "ring":
        return _compile_ring(n_pes, root, nelems, stride, itemsize,
                             copy_to_root_dest)
    raise CollectiveArgumentError(f"unknown broadcast algorithm {algorithm!r}")


#: Buffer indices of every broadcast schedule (``_buffers`` order).
_DEST, _SRC = 0, 1


def _buffers(n_pes: int, root: int, nbytes: int) -> tuple[Buffer, ...]:
    return (
        Buffer("dest", "user", nbytes, symmetric=n_pes > 1),
        Buffer("src", "user", nbytes, ranks=(root,)),
    )


def _deliver(n_pes: int, root: int, nbytes: int,
             copy_to_root_dest: bool) -> tuple:
    if nbytes == 0:
        return ()
    return tuple(
        (r, "dest", 0, nbytes) for r in range(n_pes)
        if r != root or copy_to_root_dest
    )


def _entry(root: int, nelems: int, stride: int,
           copy_to_root_dest: bool) -> Rows:
    """What every broadcast begins with: an entry barrier — a put-based
    tree must order every participant's *prior* writes to dest before
    the root's first put can land (the paper's Algorithm 1 only barriers
    at stage ends) — after which the root copies its own ``dest``."""
    rows = Rows()
    if copy_to_root_dest:
        rows.add(root, 0, 1, OP_COPY, (_DEST, 0), (_SRC, 0), nelems, stride,
                 aux=AUX_COPY)
    return rows


def _schedule(algorithm: str, n_pes: int, root: int, nelems: int,
              stride: int, itemsize: int, copy_to_root_dest: bool,
              rows: Rows, structure: Skeleton) -> Schedule:
    nbytes = span_bytes(nelems, stride, itemsize)
    return Schedule.from_rows(
        "broadcast", algorithm, n_pes, itemsize, rows, (structure,),
        root=root,
        buffers=_buffers(n_pes, root, nbytes),
        deliver=_deliver(n_pes, root, nbytes, copy_to_root_dest))


@lru_cache(maxsize=512)
def _compile_binomial(n_pes: int, root: int, nelems: int, stride: int,
                      itemsize: int, copy_to_root_dest: bool) -> Schedule:
    """Stage ``o`` halves the tree at bit ``i = k-1-o``: every virtual
    rank with its low ``i+1`` bits clear puts to ``vir + 2**i`` when that
    exists (the pairings of :func:`~.binomial.tree_stages`), out of
    ``src`` at the root and out of its own ``dest`` elsewhere."""
    k = n_stages(n_pes)
    rows = _entry(root, nelems, stride, copy_to_root_dest)
    for o in range(k):
        bit = 1 << (k - 1 - o)
        vir = np.arange(0, n_pes - bit, 2 * bit)
        # The mask loop emitted the put even for nelems == 0 (counted in
        # stats.puts); preserve that.
        rows.add((vir + root) % n_pes, o + 1, o + 1, OP_PUT, (_DEST, 0),
                 (np.where(vir == 0, _SRC, _DEST), 0), nelems, stride,
                 peer=(vir + bit + root) % n_pes)
    # A barrier closes every tree stage (section 4.3).
    return _schedule("binomial", n_pes, root, nelems, stride, itemsize,
                     copy_to_root_dest, rows,
                     skeleton(1, ((o, ()) for o in range(k)), 0))


@lru_cache(maxsize=512)
def _compile_linear(n_pes: int, root: int, nelems: int, stride: int,
                    itemsize: int, copy_to_root_dest: bool) -> Schedule:
    """Flat algorithm: the root puts to every PE in turn (no stages)."""
    rows = _entry(root, nelems, stride, copy_to_root_dest)
    rows.add(root, 0, 1, OP_PUT, (_DEST, 0), (_SRC, 0), nelems, stride,
             peer=np.delete(np.arange(n_pes), root))
    return _schedule("linear", n_pes, root, nelems, stride, itemsize,
                     copy_to_root_dest, rows, skeleton(1, (), 1))


#: Payload chunks the pipelined ring splits a broadcast into.
_RING_CHUNKS = 8


@lru_cache(maxsize=512)
def _compile_ring(n_pes: int, root: int, nelems: int, stride: int,
                  itemsize: int, copy_to_root_dest: bool) -> Schedule:
    """Chunked pipelined ring — the large-message baseline.

    The payload is split into up to ``_RING_CHUNKS`` pieces; at step
    ``s`` the PE at ring position ``p`` forwards chunk ``s - p``, so all
    ring links carry different chunks concurrently.  Completion takes
    ``(N-1) + (chunks-1)`` steps instead of the unchunked ring's
    ``N-1`` full-payload steps.
    """
    rows = _entry(root, nelems, stride, copy_to_root_dest)
    if n_pes == 1 or nelems == 0:
        return _schedule("ring", n_pes, root, nelems, stride, itemsize,
                         copy_to_root_dest, rows, skeleton(1, (), 1))
    chunks = min(_RING_CHUNKS, nelems)
    bounds = nelems * np.arange(chunks + 1) // chunks
    # Ring position ``pos`` behind the root forwards chunk ``c`` at step
    # ``pos + c`` to the next rank; the last position forwards nothing.
    pos = np.arange(n_pes - 1)[:, None]
    rank = (pos + root) % n_pes
    step = pos + np.arange(chunks)
    off = bounds[:-1] * stride * itemsize
    rows.add(rank, step + 1, step + 1, OP_PUT, (_DEST, off),
             (np.where(pos == 0, _SRC, _DEST), off), np.diff(bounds), stride,
             peer=(rank + 1) % n_pes, where=np.diff(bounds) > 0)
    return _schedule("ring", n_pes, root, nelems, stride, itemsize,
                     copy_to_root_dest, rows,
                     skeleton(1, ((s, ()) for s in range(
                         n_pes - 1 + chunks - 1)), 0))
