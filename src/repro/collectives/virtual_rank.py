"""Logical ↔ virtual rank mapping (paper section 4.3, Table 2).

Every collective assigns each PE a *virtual rank* so the root PE always
becomes virtual rank 0, with consecutive virtual ranks allocated in
sequence by logical rank relative to the root::

    vir_rank = log_rank - root            if log_rank >= root
    vir_rank = log_rank + n_pes - root    otherwise

Table 2's example (7 PEs, root 4): logical 4,5,6,0,1,2,3 → virtual
0,1,2,3,4,5,6.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import CollectiveArgumentError

__all__ = [
    "virtual_rank",
    "logical_rank",
    "rank_table",
    "remap_root",
]


def _check(n_pes: int, root: int) -> None:
    if n_pes <= 0:
        raise CollectiveArgumentError(f"n_pes must be positive, got {n_pes}")
    if not 0 <= root < n_pes:
        raise CollectiveArgumentError(
            f"root {root} out of range [0, {n_pes})"
        )


def virtual_rank(log_rank: int, root: int, n_pes: int) -> int:
    """Virtual rank of ``log_rank`` for a collective rooted at ``root``."""
    _check(n_pes, root)
    if not 0 <= log_rank < n_pes:
        raise CollectiveArgumentError(
            f"log_rank {log_rank} out of range [0, {n_pes})"
        )
    if log_rank >= root:
        return log_rank - root
    return log_rank + n_pes - root


def logical_rank(vir_rank: int, root: int, n_pes: int) -> int:
    """Inverse of :func:`virtual_rank` (the ``log_part`` computation)."""
    _check(n_pes, root)
    if not 0 <= vir_rank < n_pes:
        raise CollectiveArgumentError(
            f"vir_rank {vir_rank} out of range [0, {n_pes})"
        )
    return (vir_rank + root) % n_pes


def rank_table(root: int, n_pes: int) -> list[tuple[int, int]]:
    """The full (log_rank, vir_rank) table — Table 2 for root=4, n_pes=7."""
    return [(lr, virtual_rank(lr, root, n_pes)) for lr in range(n_pes)]


def remap_root(members: Sequence[int], root: int,
               live: Sequence[int]) -> int:
    """World rank acting as root after PE failures.

    ``members`` is the original group (world ranks), ``root`` the
    group-relative root index, ``live`` the surviving world ranks.  The
    original root keeps the role while alive; otherwise the survivor
    with the smallest virtual rank w.r.t. the original root takes over —
    the PE the binomial tree reached earliest, hence the one most likely
    to already hold the root's data.  Deterministic, so every survivor
    picks the same new root without communicating.
    """
    members = tuple(members)
    n_pes = len(members)
    _check(n_pes, root)
    live_set = set(live)
    if not live_set:
        raise CollectiveArgumentError("remap_root: no surviving PEs")
    bad = live_set - set(members)
    if bad:
        raise CollectiveArgumentError(
            f"remap_root: live ranks {sorted(bad)} not in group {members}"
        )
    if members[root] in live_set:
        return members[root]
    return min(
        live_set,
        key=lambda r: virtual_rank(members.index(r), root, n_pes),
    )
