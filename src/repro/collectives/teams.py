"""Collectives over a subset of PEs (paper section 7 future work).

A :class:`Team` is an ordered set of world ranks; all collective calls
take team-relative roots and synchronise only the members.  Disjoint
teams operate concurrently and independently (their scratch allocations
land at matching addresses because every member pushes the same sizes —
see :class:`repro.runtime.symmetric_heap.ScratchStack`).

Usage::

    team = Team(ctx, [0, 2, 4, 6])     # every member constructs it
    if team.contains(ctx.rank):
        team.broadcast(dest, src, n, 1, root=0, dtype="long")
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..errors import CollectiveArgumentError
from ..runtime.collective_api import resolve_dtype
from .request import COLLECTIVES, prepare

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.context import XBRTime

__all__ = ["Team"]


class Team:
    """A PE subset with its own rank space and collective surface."""

    def __init__(self, ctx: "XBRTime", members: Sequence[int]):
        self.ctx = ctx
        self.members = tuple(members)
        if not self.members:
            raise CollectiveArgumentError("team cannot be empty")
        if len(set(self.members)) != len(self.members):
            raise CollectiveArgumentError(
                f"team has duplicate ranks: {self.members}"
            )
        if ctx.rank not in self.members:
            raise CollectiveArgumentError(
                f"PE {ctx.rank} constructed a team {self.members} it does "
                "not belong to"
            )

    # -- identity -----------------------------------------------------------

    def contains(self, world_rank: int) -> bool:
        return world_rank in self.members

    def my_pe(self) -> int:
        """This PE's team-relative rank."""
        return self.members.index(self.ctx.rank)

    def num_pes(self) -> int:
        return len(self.members)

    def world_rank(self, team_rank: int) -> int:
        return self.members[team_rank]

    # -- synchronisation -------------------------------------------------------

    def barrier(self) -> None:
        self.ctx.barrier_team(self.members)

    # -- collectives (roots are team-relative) ------------------------------------
    #
    # Each call is issued through the context's dispatcher, so inside
    # ``ctx.superstep()`` it defers in call order like a world call.

    def _issue(self, name: str, *args) -> None:
        ctx = self.ctx
        ctx._issue(prepare(ctx, COLLECTIVES[name], *args,
                           group=self.members))

    def broadcast(self, dest: int, src: int, nelems: int, stride: int,
                  root: int, dtype: str | np.dtype = "long") -> None:
        self._issue("broadcast", dest, src, nelems, stride, root,
                    resolve_dtype(dtype))

    def reduce(self, dest: int, src: int, nelems: int, stride: int,
               root: int, op: str = "sum",
               dtype: str | np.dtype = "long") -> None:
        self._issue("reduce", dest, src, nelems, stride, root, op,
                    resolve_dtype(dtype))

    def scatter(self, dest: int, src: int, pe_msgs: Sequence[int],
                pe_disp: Sequence[int], nelems: int, root: int,
                dtype: str | np.dtype = "long") -> None:
        self._issue("scatter", dest, src, pe_msgs, pe_disp, nelems, root,
                    resolve_dtype(dtype))

    def gather(self, dest: int, src: int, pe_msgs: Sequence[int],
               pe_disp: Sequence[int], nelems: int, root: int,
               dtype: str | np.dtype = "long") -> None:
        self._issue("gather", dest, src, pe_msgs, pe_disp, nelems, root,
                    resolve_dtype(dtype))

    def allreduce(self, dest: int, src: int, nelems: int, stride: int,
                  op: str = "sum", dtype: str | np.dtype = "long") -> None:
        self._issue("allreduce", dest, src, nelems, stride, op,
                    resolve_dtype(dtype))

    def alltoall(self, dest: int, src: int, nelems_per_pe: int,
                 dtype: str | np.dtype = "long") -> None:
        self._issue("alltoall", dest, src, nelems_per_pe,
                    resolve_dtype(dtype))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Team(members={self.members}, me={self.ctx.rank})"
