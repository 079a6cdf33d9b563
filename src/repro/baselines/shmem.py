"""An OpenSHMEM-1.4-style collective API surface (paper section 4.7).

The paper contrasts its explicit per-type calls against OpenSHMEM's
conventions; this module provides the OpenSHMEM side of that comparison
with faithful semantic differences:

* calls are distinguished by *element size* (``shmem_broadcast32`` /
  ``shmem_broadcast64``) rather than by type name;
* ``shmem_broadcast`` does **not** update ``dest`` on the root PE;
* reductions are ``*_to_all``: every PE of the active set receives the
  result (``shmem_long_sum_to_all`` etc.);
* ``collect``/``fcollect`` concatenate contributions on *all* PEs;
* collectives address PE subsets with the (``PE_start``,
  ``logPE_stride``, ``PE_size``) active-set triple;
* broadcast/reduce have **no stride argument**, and there is **no
  scatter** — exactly the versatility gaps section 4.7 claims for the
  xBGAS library.

The ``pSync``/``pWrk`` work-array arguments of the real API are accepted
for signature fidelity but unused (the runtime's symmetric scratch plays
their role).  Every call is issued through the context's dispatcher, so
inside ``ctx.superstep()`` it defers in call order like the context's
own collectives.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..collectives.request import COLLECTIVES, prepare
from ..errors import CollectiveArgumentError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.context import XBRTime

__all__ = ["ShmemAPI", "active_set"]

#: Types the OpenSHMEM 1.4 reduction interface names explicitly.
_REDUCTION_TYPES: dict[str, np.dtype] = {
    "short": np.dtype(np.int16),
    "int": np.dtype(np.int32),
    "long": np.dtype(np.int64),
    "longlong": np.dtype(np.int64),
    "float": np.dtype(np.float32),
    "double": np.dtype(np.float64),
}
_REDUCTION_OPS = ("sum", "prod", "min", "max", "and", "or", "xor")


def active_set(pe_start: int, log_pe_stride: int, pe_size: int,
               n_pes: int) -> tuple[int, ...]:
    """Expand an OpenSHMEM active-set triple into world ranks."""
    if pe_size <= 0 or pe_start < 0 or log_pe_stride < 0:
        raise CollectiveArgumentError(
            f"bad active set ({pe_start}, {log_pe_stride}, {pe_size})"
        )
    stride = 1 << log_pe_stride
    members = tuple(pe_start + i * stride for i in range(pe_size))
    if members[-1] >= n_pes:
        raise CollectiveArgumentError(
            f"active set ({pe_start}, {log_pe_stride}, {pe_size}) exceeds "
            f"{n_pes} PEs"
        )
    return members


class ShmemAPI:
    """OpenSHMEM-flavoured wrapper around one PE's xbrtime context."""

    def __init__(self, ctx: "XBRTime"):
        self.ctx = ctx

    # -- setup / query (OpenSHMEM names) ------------------------------------

    def my_pe(self) -> int:
        return self.ctx.my_pe()

    def n_pes(self) -> int:
        return self.ctx.num_pes()

    def barrier_all(self) -> None:
        self.ctx.barrier()

    def barrier(self, pe_start: int, log_pe_stride: int, pe_size: int,
                psync: object = None) -> None:
        self.ctx.barrier_team(self._members(pe_start, log_pe_stride, pe_size))

    def _members(self, pe_start: int, log_pe_stride: int,
                 pe_size: int | None) -> tuple[int, ...]:
        """The active set; ``pe_size=None`` means every PE (0 is refused)."""
        n = self.n_pes()
        return active_set(pe_start, log_pe_stride,
                          n if pe_size is None else pe_size, n)

    # -- broadcast (size-suffixed; root dest NOT updated) ----------------------

    def _bcast(self, elem_bytes: int, dest: int, source: int, nelems: int,
               pe_root: int, pe_start: int, log_pe_stride: int,
               pe_size: int | None) -> None:
        members = self._members(pe_start, log_pe_stride, pe_size)
        ctx = self.ctx
        ctx._issue(prepare(
            ctx, COLLECTIVES["broadcast"], dest, source, nelems, 1, pe_root,
            np.dtype(f"u{elem_bytes}"), group=members,
            copy_to_root_dest=False,
        ))

    def broadcast32(self, dest: int, source: int, nelems: int, pe_root: int,
                    pe_start: int = 0, log_pe_stride: int = 0,
                    pe_size: int | None = None, psync: object = None) -> None:
        """``shmem_broadcast32``: 4-byte elements."""
        self._bcast(4, dest, source, nelems, pe_root, pe_start,
                    log_pe_stride, pe_size)

    def broadcast64(self, dest: int, source: int, nelems: int, pe_root: int,
                    pe_start: int = 0, log_pe_stride: int = 0,
                    pe_size: int | None = None, psync: object = None) -> None:
        """``shmem_broadcast64``: 8-byte elements."""
        self._bcast(8, dest, source, nelems, pe_root, pe_start,
                    log_pe_stride, pe_size)

    # -- reductions: TYPE_OP_to_all ------------------------------------------------

    def reduce_to_all(self, typename: str, op: str, dest: int, source: int,
                      nreduce: int, pe_start: int = 0, log_pe_stride: int = 0,
                      pe_size: int | None = None, pwrk: object = None,
                      psync: object = None) -> None:
        """``shmem_TYPE_OP_to_all``: reduction whose result lands on
        every PE of the active set."""
        if typename not in _REDUCTION_TYPES:
            raise CollectiveArgumentError(
                f"OpenSHMEM reductions cover {sorted(_REDUCTION_TYPES)}, "
                f"not {typename!r}"
            )
        if op not in _REDUCTION_OPS:
            raise CollectiveArgumentError(f"unknown reduction op {op!r}")
        members = self._members(pe_start, log_pe_stride, pe_size)
        ctx = self.ctx
        ctx._issue(prepare(ctx, COLLECTIVES["allreduce"], dest, source,
                           nreduce, 1, op, _REDUCTION_TYPES[typename],
                           group=members))

    def __getattr__(self, name: str):
        # shmem_<type>_<op>_to_all convenience: e.g. long_sum_to_all.
        parts = name.split("_")
        if len(parts) >= 4 and parts[-2:] == ["to", "all"]:
            typename, op = parts[0], "_".join(parts[1:-2])
            if typename in _REDUCTION_TYPES and op in _REDUCTION_OPS:
                def call(dest, source, nreduce, pe_start=0, log_pe_stride=0,
                         pe_size=None, pwrk=None, psync=None,
                         _t=typename, _o=op):
                    return self.reduce_to_all(_t, _o, dest, source, nreduce,
                                              pe_start, log_pe_stride,
                                              pe_size, pwrk, psync)
                return call
        raise AttributeError(name)

    # -- collect / fcollect -----------------------------------------------------------

    def fcollect(self, elem_bytes: int, dest: int, source: int, nelems: int,
                 pe_start: int = 0, log_pe_stride: int = 0,
                 pe_size: int | None = None, psync: object = None) -> None:
        """``shmem_fcollect{32,64}``: fixed-size concatenation on all PEs."""
        members = self._members(pe_start, log_pe_stride, pe_size)
        n = len(members)
        ctx = self.ctx
        ctx._issue(prepare(
            ctx, COLLECTIVES["allgather"], dest, source, [nelems] * n,
            [i * nelems for i in range(n)], nelems * n,
            np.dtype(f"u{elem_bytes}"), group=members))

    def fcollect32(self, dest: int, source: int, nelems: int, **kw) -> None:
        self.fcollect(4, dest, source, nelems, **kw)

    def fcollect64(self, dest: int, source: int, nelems: int, **kw) -> None:
        self.fcollect(8, dest, source, nelems, **kw)

    def collect(self, elem_bytes: int, dest: int, source: int, nelems: int,
                pe_start: int = 0, log_pe_stride: int = 0,
                pe_size: int | None = None, psync: object = None) -> None:
        """``shmem_collect{32,64}``: variable-size concatenation on all
        PEs — the per-PE counts are exchanged first (as real
        implementations must)."""
        members = self._members(pe_start, log_pe_stride, pe_size)
        ctx = self.ctx
        n = len(members)
        me = members.index(ctx.rank)
        dtype = np.dtype(f"u{elem_bytes}")
        # Exchange counts with a fixed-size allgather of one long each.
        # They are read at once, so this exchange runs now even inside a
        # superstep; only the data's allgather is issued.
        cnt_src = ctx.scratch_alloc(8)
        cnt_all = ctx.scratch_alloc(8 * n)
        ctx.view(cnt_src, "long", 1)[0] = nelems
        prepare(ctx, COLLECTIVES["allgather"], cnt_all, cnt_src, [1] * n,
                list(range(n)), n, np.dtype(np.int64), group=members).run(ctx)
        counts = [int(c) for c in ctx.view(cnt_all, "long", n)]
        disp = [sum(counts[:i]) for i in range(n)]
        ctx._issue(prepare(ctx, COLLECTIVES["allgather"], dest, source,
                           counts, disp, sum(counts), dtype, group=members))
        ctx.scratch_free(cnt_all)
        ctx.scratch_free(cnt_src)

    def collect32(self, dest: int, source: int, nelems: int, **kw) -> None:
        self.collect(4, dest, source, nelems, **kw)

    def collect64(self, dest: int, source: int, nelems: int, **kw) -> None:
        self.collect(8, dest, source, nelems, **kw)
