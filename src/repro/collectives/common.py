"""Shared plumbing for the collective implementations.

All collectives operate over a *group*: the ordered tuple of world ranks
participating in the call (``None`` = all PEs).  Ranks inside an
algorithm (``log_rank``, ``root``, ``vir_rank``) are group-relative;
:func:`resolve_group`'s ``members[r]`` converts back when issuing
put/get.  This is the mechanism behind team collectives (paper section
7) — the world case is simply the identity group.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..errors import CollectiveArgumentError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.context import XBRTime

__all__ = [
    "resolve_group",
    "validate_root",
    "validate_counts",
    "span_bytes",
    "charge_elementwise",
    "collective_span",
]


class _NullSpan:
    """Shared no-op context manager for the tracing-disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


def collective_span(ctx: "XBRTime", name: str, members: Sequence[int],
                    **attrs: object):
    """Context manager spanning one collective call on this PE.

    The span carries the participant ``group`` so the metrics layer can
    correlate the per-PE spans of one logical call.  Returns a shared
    no-op when tracing is disabled (zero allocation, zero events).
    """
    spans = ctx.spans
    if not spans.enabled:
        return _NULL_SPAN
    return spans.scope(ctx.rank, "collective", name,
                       {"group": tuple(members), **attrs})


def resolve_group(ctx: "XBRTime", group: Sequence[int] | None) -> tuple[tuple[int, ...], int]:
    """Normalise ``group`` and locate the caller.

    Returns ``(members, my_index)`` where ``members`` is the ordered
    tuple of world ranks and ``my_index`` is the caller's group rank.
    """
    if group is None:
        # Team-scoped contexts (serving over PE subsets) carry a default
        # group; collectives called without an explicit one target it,
        # with group-relative ranks.  Plain contexts fall to the world.
        group = getattr(ctx, "default_group", None)
        if group is None:
            return ctx.world_group, ctx.rank
    members = tuple(group)
    if len(set(members)) != len(members):
        raise CollectiveArgumentError(f"group has duplicate ranks: {members}")
    n_world = ctx.config.n_pes
    for r in members:
        if not 0 <= r < n_world:
            raise CollectiveArgumentError(f"group rank {r} out of range")
    try:
        me = members.index(ctx.rank)
    except ValueError:
        raise CollectiveArgumentError(
            f"PE {ctx.rank} called a collective of group {members} it does "
            "not belong to"
        ) from None
    return members, me


def validate_root(root: int, n_pes: int) -> None:
    if not 0 <= root < n_pes:
        raise CollectiveArgumentError(
            f"root {root} out of range [0, {n_pes})"
        )


def validate_counts(nelems: int, stride: int) -> None:
    if nelems < 0:
        raise CollectiveArgumentError(f"nelems must be >= 0, got {nelems}")
    if stride < 1:
        raise CollectiveArgumentError(f"stride must be >= 1, got {stride}")


def span_bytes(nelems: int, stride: int, elem_bytes: int) -> int:
    """Bytes spanned by ``nelems`` strided elements (0 when empty)."""
    if nelems == 0:
        return 0
    return ((nelems - 1) * stride + 1) * elem_bytes


def charge_elementwise(ctx: "XBRTime", nelems: int, instrs_per_elem: float = 2.0) -> None:
    """Charge the ALU cost of an elementwise pass over ``nelems``."""
    ctx.compute(nelems * instrs_per_elem * ctx.config.cycle_ns)
