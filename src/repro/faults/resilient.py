"""Degraded-mode collectives: survive PE crashes by rebuilding the tree.

When a barrier's failure detector trips, every surviving participant of
that barrier instance raises :class:`~repro.errors.PeerFailedError`
carrying the *same* dead set.  The wrappers here catch it, shrink the
group, remap the binomial tree's virtual ranks over the survivors
(:func:`~repro.collectives.virtual_rank.remap_root`) and rerun the
collective — all survivors make identical decisions from identical
exception payloads, so no extra agreement protocol is needed.

Two semantics are offered:

* **rebuild** (:func:`resilient_broadcast`, :func:`resilient_reduce`,
  :func:`resilient_allreduce`) — rerun over the survivor group until an
  attempt completes.  For reductions this is the *eventually
  consistent* mode of Iakymchuk et al.: the result folds only the
  survivors' contributions, and the returned
  :class:`ResilientResult.contributors` mask says exactly whose data is
  in it — a partial result with provenance instead of a hang.
* The caller may instead treat any non-empty ``dead`` as fatal by
  checking :attr:`ResilientResult.complete`.

Group agreement relies on one rule: membership decisions derive only
from ``PeerFailedError.dead`` payloads (shared state), never from
asking the injector directly — survivors may observe a crash at
different simulated times, but they always drain through the same
degraded barrier instance and therefore see the same dead set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..collectives.common import resolve_group, validate_root
from ..collectives.request import COLLECTIVES, prepare
from ..collectives.virtual_rank import remap_root
from ..errors import PeerFailedError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.context import XBRTime

__all__ = [
    "ResilientResult",
    "resilient_broadcast",
    "resilient_reduce",
    "resilient_allreduce",
]


@dataclass(frozen=True)
class ResilientResult:
    """Outcome of one resilient collective on this PE."""

    #: How many times the collective restarted after a detected failure.
    restarts: int
    #: World ranks whose contribution is in the result (the mask).
    contributors: tuple[int, ...]
    #: World ranks detected dead during the call.
    dead: tuple[int, ...]
    #: World rank holding the rooted result (None for allreduce).
    root: int | None = None

    @property
    def complete(self) -> bool:
        """True when every original participant contributed."""
        return not self.dead


def _run_attempts(ctx: "XBRTime", members: tuple[int, ...],
                  max_restarts: int, attempt) -> tuple[int, tuple[int, ...]]:
    """Drive ``attempt(live)`` until it completes over a stable group.

    Starts from the full member list (never from a liveness query — see
    module docstring) and shrinks it by each PeerFailedError's dead set.
    """
    live = members
    restarts = 0
    while True:
        try:
            attempt(live)
            return restarts, live
        except PeerFailedError as err:
            survivors = tuple(r for r in live if r not in err.dead)
            if not survivors or ctx.rank not in survivors:
                raise
            live = survivors
            restarts += 1
            if restarts > max_restarts:
                raise


def resilient_broadcast(
    ctx: "XBRTime", dest: int, src: int, nelems: int, stride: int,
    root: int, dtype: np.dtype, *, group: Sequence[int] | None = None,
    max_restarts: int = 8,
) -> ResilientResult:
    """Broadcast that survives PE crashes by re-rooting over survivors.

    If the root dies mid-tree, the survivor with the smallest virtual
    rank (the earliest-reached subtree head) becomes the new root and
    forwards from its ``dest`` — the payload it already received.  If
    the root dies before completing any stage, survivors receive the
    new root's current ``dest`` contents; data the root never sent
    cannot be recovered.
    """
    members, _ = resolve_group(ctx, group)
    validate_root(root, len(members))
    root_world = members[root]

    def attempt(live: tuple[int, ...]) -> None:
        new_root = remap_root(members, root, live)
        local_src = src if ctx.rank == root_world else dest
        prepare(ctx, COLLECTIVES["broadcast"], dest, local_src, nelems,
                stride, live.index(new_root), dtype, group=live).run(ctx)

    restarts, live = _run_attempts(ctx, members, max_restarts, attempt)
    return ResilientResult(
        restarts=restarts,
        contributors=live,
        dead=tuple(r for r in members if r not in live),
        root=remap_root(members, root, live),
    )


def resilient_reduce(
    ctx: "XBRTime", dest: int, src: int, nelems: int, stride: int,
    root: int, op: str, dtype: np.dtype, *,
    group: Sequence[int] | None = None, max_restarts: int = 8,
) -> ResilientResult:
    """Eventually consistent reduction: fold the survivors' values.

    Each attempt restarts from every live PE's untouched ``src``, so a
    partial previous attempt cannot double-count.  The result lands in
    ``dest`` on :attr:`ResilientResult.root`; the contribution mask
    names the ranks whose values are in it.
    """
    members, _ = resolve_group(ctx, group)
    validate_root(root, len(members))

    def attempt(live: tuple[int, ...]) -> None:
        new_root = remap_root(members, root, live)
        prepare(ctx, COLLECTIVES["reduce"], dest, src, nelems, stride,
                live.index(new_root), op, dtype, group=live).run(ctx)

    restarts, live = _run_attempts(ctx, members, max_restarts, attempt)
    return ResilientResult(
        restarts=restarts,
        contributors=live,
        dead=tuple(r for r in members if r not in live),
        root=remap_root(members, root, live),
    )


def resilient_allreduce(
    ctx: "XBRTime", dest: int, src: int, nelems: int, stride: int,
    op: str, dtype: np.dtype, *, group: Sequence[int] | None = None,
    max_restarts: int = 8,
) -> ResilientResult:
    """Eventually consistent allreduce over the survivors.

    Every surviving PE ends with the same partial reduction in ``dest``
    plus the contribution mask saying which ranks are folded in.
    """
    members, _ = resolve_group(ctx, group)

    def attempt(live: tuple[int, ...]) -> None:
        prepare(ctx, COLLECTIVES["allreduce"], dest, src, nelems, stride, op,
                dtype, group=live).run(ctx)

    restarts, live = _run_attempts(ctx, members, max_restarts, attempt)
    return ResilientResult(
        restarts=restarts,
        contributors=live,
        dead=tuple(r for r in members if r not in live),
        root=None,
    )
