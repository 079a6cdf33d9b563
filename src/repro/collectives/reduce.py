"""Reduction (paper section 4.4, Algorithm 2), compiled to a schedule.

Binomial tree with recursive doubling: the pairings are those of
:func:`~repro.collectives.binomial.tree_stages` in the ``"doubling"``
direction, emitted as step-table rows with index arithmetic — each
stage's parent *gets* its child's accumulated values and folds them
with the reduction operator, moving data from the leaves toward the
root.

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

import numpy as np

from ..errors import CollectiveArgumentError
from .binomial import n_stages
from .common import span_bytes
from .schedule.ir import (
    AUX_COPY,
    OP_COPY,
    OP_GET,
    OP_REDUCE,
    Buffer,
    Rows,
    Schedule,
    skeleton,
)

__all__ = ["compile_reduce"]


def compile_reduce(n_pes: int, root: int, nelems: int, stride: int,
                   itemsize: int, op: str, *,
                   algorithm: str = "binomial") -> Schedule:
    """Compile one reduce call shape into a schedule (pure, cached)."""
    if algorithm == "binomial":
        return _compile_binomial(n_pes, root, nelems, stride, itemsize, op)
    if algorithm == "linear":
        return _compile_linear(n_pes, root, nelems, stride, itemsize, op)
    raise CollectiveArgumentError(f"unknown reduce algorithm {algorithm!r}")


#: Buffer indices of every reduce schedule (``_buffers`` order).
_DEST, _SRC, _S, _L = range(4)


def _buffers(root: int, nbytes: int, l_ranks) -> tuple[Buffer, ...]:
    return (Buffer("dest", "user", nbytes, ranks=(root,)),
            Buffer("src", "user", nbytes),
            Buffer("s", "scratch", nbytes, symmetric=True),
            Buffer("l", "private", nbytes, ranks=l_ranks))


def _degenerate(n_pes: int, root: int, nelems: int, stride: int,
                itemsize: int, op: str, algorithm: str) -> Schedule:
    """1 PE or empty payload: the root copies src→dest, everyone syncs."""
    nbytes = span_bytes(nelems, stride, itemsize)
    rows = Rows()
    rows.add(root, 0, 0, OP_COPY, (_DEST, 0), (_SRC, 0), nelems, stride,
             aux=AUX_COPY)
    return Schedule.from_rows(
        "reduce", algorithm, n_pes, itemsize, rows, (skeleton(1, (), 0),),
        root=root, op=op, buffers=_buffers(root, nbytes, None)[:2],
        deliver=((root, "dest", 0, nbytes),) if nbytes else ())


def _loaded(n_pes: int, nelems: int, stride: int) -> Rows:
    """Every rank loads its contribution into the shared ``s`` (so
    partners can read it one-sidedly), then the barrier that orders
    every load before the first get."""
    rows = Rows()
    rows.add(np.arange(n_pes), 0, 0, OP_COPY, (_S, 0), (_SRC, 0), nelems,
             stride, aux=AUX_COPY)
    return rows


def _fold(rows: Rows, parent, child, section: int, phase: int,
          nelems: int, stride: int) -> None:
    """``parent`` pulls ``child``'s *accumulated* values (see module
    note) and folds them into ``s``: a get and a reduce per pair, in
    that order on every parent."""
    parent, child = np.broadcast_arrays(parent, child)
    rows.add(parent[:, None], section, phase, [OP_GET, OP_REDUCE],
             ([_L, _S], 0), ([_S, _L], 0), nelems, stride,
             peer=np.stack((child, parent), axis=1), aux=[0, nelems])


@lru_cache(maxsize=512)
def _compile_binomial(n_pes: int, root: int, nelems: int, stride: int,
                      itemsize: int, op: str) -> Schedule:
    """Stage ``i`` (recursive doubling): every virtual rank with its low
    ``i+1`` bits clear folds in ``vir + 2**i`` when that exists — the
    pairings of :func:`~.binomial.tree_stages` — and the root finally
    copies ``s`` out."""
    if nelems == 0 or n_pes == 1:
        return _degenerate(n_pes, root, nelems, stride, itemsize, op,
                           "binomial")
    nbytes = span_bytes(nelems, stride, itemsize)
    k = n_stages(n_pes)
    rows = _loaded(n_pes, nelems, stride)
    for i in range(k):
        vir = np.arange(0, n_pes - (1 << i), 2 << i)
        _fold(rows, (vir + root) % n_pes, (vir + (1 << i) + root) % n_pes,
              i + 1, i + 1, nelems, stride)
    rows.add(root, k + 1, k + 1, OP_COPY, (_DEST, 0), (_S, 0), nelems,
             stride, aux=AUX_COPY)
    return Schedule.from_rows(
        "reduce", "binomial", n_pes, itemsize, rows,
        (skeleton(1, ((i, ()) for i in range(k)), 0),), root=root, op=op,
        buffers=_buffers(root, nbytes, None),
        deliver=((root, "dest", 0, nbytes),))


@lru_cache(maxsize=512)
def _compile_linear(n_pes: int, root: int, nelems: int, stride: int,
                    itemsize: int, op: str) -> Schedule:
    """Flat algorithm: the root gets and folds every PE's values."""
    if nelems == 0 or n_pes == 1:
        return _degenerate(n_pes, root, nelems, stride, itemsize, op,
                           "linear")
    nbytes = span_bytes(nelems, stride, itemsize)
    rows = _loaded(n_pes, nelems, stride)
    _fold(rows, root, np.delete(np.arange(n_pes), root), 0, 1, nelems,
          stride)
    rows.add(root, 0, 1, OP_COPY, (_DEST, 0), (_S, 0), nelems, stride,
             aux=AUX_COPY)
    return Schedule.from_rows(
        "reduce", "linear", n_pes, itemsize, rows, (skeleton(1, (), 1),),
        root=root, op=op, buffers=_buffers(root, nbytes, (root,)),
        deliver=((root, "dest", 0, nbytes),))
