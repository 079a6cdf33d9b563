"""Non-blocking collectives (paper section 7 future work).

Modelled as *deferred* collectives: initiation validates the call and
*compiles* its schedule (via :func:`~repro.collectives.request.prepare`
on the collective's record), returning a handle that holds the ready-to-run
:class:`~repro.collectives.schedule.PreparedCollective`; the operation
executes when every participant waits on its handle.  Argument errors
therefore surface at initiation — where the faulty call site is — while
all communication still happens at the wait.  This matches the weakest conforming semantics of
non-blocking collectives (completion is only guaranteed at the wait) and
keeps the simulation's barrier-based timing exact.  True communication/
computation overlap is a limitation of this reproduction — the paper
itself lists non-blocking collectives as unimplemented future work.

Usage (all PEs)::

    h = ibroadcast(ctx, dest, src, n, 1, root, dtype)
    ...local work...
    h.wait()
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from ..errors import CollectiveArgumentError
from .request import COLLECTIVES, prepare

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.context import XBRTime

__all__ = [
    "CollectiveHandle",
    "ibroadcast",
    "ireduce",
    "iscatter",
    "igather",
]


@dataclass
class CollectiveHandle:
    """Completion token for a deferred collective.

    A handle is *per participant*: every PE initiates its own and waits
    on its own.  ``wait()`` is idempotent — a second call is a no-op, as
    with ``MPI_Wait`` on an inactive request.
    """

    name: str = "collective"
    #: The initiated call (a ``PreparedCollective``), run at the wait.
    _prepared: Any = field(default=None, repr=False)
    done: bool = False
    #: World rank that initiated this handle (None = never initiated).
    initiator: int | None = None
    _ctx: Any = field(default=None, repr=False)

    def wait(self) -> None:
        """Execute/complete the collective (must be called by every
        participant, like the blocking call would be)."""
        if self._prepared is None:
            raise CollectiveArgumentError(
                f"wait() on a never-initiated {self.name} handle: every "
                "participant must call the i* initiation itself before "
                "waiting"
            )
        self._check_caller()
        if self.done:
            return
        self._prepared.run(self._ctx)
        self.done = True

    def _check_caller(self) -> None:
        """Reject a wait issued from a different PE than the initiator.

        Handles are plain Python objects visible across the simulated
        PEs' threads, so without this check a PE could accidentally
        drive *another* participant's side of the collective — a class
        of bug that deadlocks real programs.  Checked before the
        idempotence fast path so the misuse is caught even on completed
        handles.
        """
        if self._ctx is None or self.initiator is None:
            return
        current = self._ctx.executing_rank()
        if current is None:
            return  # inspected from outside PE code (driver/tests)
        if current != self.initiator:
            raise CollectiveArgumentError(
                f"PE {current} waited on a {self.name} handle "
                f"initiated by PE {self.initiator}; non-blocking "
                "collectives are per-participant — each PE initiates and "
                "waits on its own handle"
            )

    def test(self) -> bool:
        """Non-blocking completion check."""
        return self.done


def _initiate(ctx: "XBRTime", name: str, *args,
              group: Sequence[int] | None) -> CollectiveHandle:
    """Prepare the call of ``name`` less its ``i`` and hold it."""
    return CollectiveHandle(
        name=name, _prepared=prepare(ctx, COLLECTIVES[name[1:]], *args,
                                     group=group),
        initiator=ctx.rank, _ctx=ctx)


def ibroadcast(ctx: "XBRTime", dest: int, src: int, nelems: int, stride: int,
               root: int, dtype: np.dtype,
               group: Sequence[int] | None = None) -> CollectiveHandle:
    """Non-blocking broadcast (Algorithm 1, deferred)."""
    return _initiate(ctx, "ibroadcast", dest, src, nelems, stride, root,
                     dtype, group=group)


def ireduce(ctx: "XBRTime", dest: int, src: int, nelems: int, stride: int,
            root: int, op: str, dtype: np.dtype,
            group: Sequence[int] | None = None) -> CollectiveHandle:
    """Non-blocking reduction (Algorithm 2, deferred)."""
    return _initiate(ctx, "ireduce", dest, src, nelems, stride, root, op,
                     dtype, group=group)


def iscatter(ctx: "XBRTime", dest: int, src: int, pe_msgs: Sequence[int],
             pe_disp: Sequence[int], nelems: int, root: int,
             dtype: np.dtype,
             group: Sequence[int] | None = None) -> CollectiveHandle:
    """Non-blocking scatter (Algorithm 3, deferred)."""
    return _initiate(ctx, "iscatter", dest, src, pe_msgs, pe_disp, nelems,
                     root, dtype, group=group)


def igather(ctx: "XBRTime", dest: int, src: int, pe_msgs: Sequence[int],
            pe_disp: Sequence[int], nelems: int, root: int,
            dtype: np.dtype,
            group: Sequence[int] | None = None) -> CollectiveHandle:
    """Non-blocking gather (Algorithm 4, deferred)."""
    return _initiate(ctx, "igather", dest, src, pe_msgs, pe_disp, nelems,
                     root, dtype, group=group)
