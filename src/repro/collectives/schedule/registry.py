"""Enumeration of every builtin schedule compiler, for the linter.

Every collective's record (:mod:`~repro.collectives.request`) names its
algorithms' compilers and the call shapes that reach each compiler's
structurally distinct paths; this module compiles those shapes for each
``(collective, algorithm)`` pair at a range of PE counts — power-of-two
and not, and stride 2 where the compiler takes one — and adds the
superstep's fused batches.  ``python -m repro.collectives.schedule``
lints everything this module yields, which is also what the CI
``schedule-lint`` job and ``tests/collectives/test_schedule_lint.py``
run.
"""

from __future__ import annotations

from typing import Collection, Iterator, Sequence

from ..request import COLLECTIVES
from .ir import Schedule

__all__ = ["BUILTIN_ALGORITHMS", "builtin_schedules"]

#: Every builtin ``(collective, algorithm)`` pair with a compiler: each
#: record's algorithms in order, then the superstep's fused batches.
BUILTIN_ALGORITHMS: tuple[tuple[str, str], ...] = tuple(
    (name, algorithm) for name, desc in COLLECTIVES.items()
    for algorithm in desc.compilers) + (("superstep", "fused"),)

#: Collectives whose compilers take an element stride: their shapes are
#: also compiled at stride 2, where every chunked write leaves a hole
#: between its last element and the next chunk's first.
STRIDED = tuple(name for name, desc in COLLECTIVES.items()
                if "stride" in desc.params)


def _shapes_for(collective: str, algorithm: str, n_pes: int,
                nelems: int, itemsize: int,
                stride: int = 1) -> Iterator[tuple[str, Schedule]]:
    """The call shapes of one pair at one PE count — the record's
    shapes, compiled through the record's compiler as a call would be;
    ``stride`` reaches the collectives in :data:`STRIDED`."""
    if collective != "superstep":
        desc = COLLECTIVES[collective]
        compiler = desc.compilers[algorithm]
        for label, shape in desc.shapes(n_pes, nelems, algorithm):
            yield label, compiler.build(*compiler.arguments({
                **desc.options, "n_pes": n_pes, "nelems": nelems,
                "stride": stride, "itemsize": itemsize, "op": "sum",
                "algorithm": algorithm, **shape}))
        return
    from ..allreduce import compile_allreduce
    from ..broadcast import compile_broadcast
    from ..reduce import compile_reduce
    from .fuse import compile_widened, fuse_schedules

    root = n_pes // 2
    # Widened same-shape batches (ragged counts, a zero-count
    # member) for each WIDENABLE algorithm, fused mixed-collective
    # batches, and a widened batch fused with a loose single call —
    # the shapes the superstep flush actually emits.
    widened = compile_widened("allreduce", "doubling", n_pes, 0,
                              "sum", itemsize, (nelems, 1, 0, nelems))
    yield ("widened allreduce k=4 ragged", widened)
    yield ("widened broadcast k=3",
           compile_widened("broadcast", "binomial", n_pes, root,
                           None, itemsize, (nelems, nelems, 1)))
    yield ("widened reduce k=2",
           compile_widened("reduce", "binomial", n_pes, root, "sum",
                           itemsize, (1, nelems)))
    yield ("fused bcast+reduce+allreduce",
           fuse_schedules((
               compile_broadcast(n_pes, 0, nelems, 1, itemsize),
               compile_reduce(n_pes, root, nelems, 1, itemsize,
                              "sum"),
               compile_allreduce(n_pes, nelems, 1, itemsize, "sum"),
           )))
    yield ("fused widened+single",
           fuse_schedules((
               widened,
               compile_broadcast(n_pes, 0, nelems, 1, itemsize),
           )))
    yield ("fused degenerate+real",
           fuse_schedules((
               compile_allreduce(n_pes, 0, 1, itemsize, "sum"),
               compile_allreduce(n_pes, nelems, 1, itemsize, "sum"),
           )))


def builtin_schedules(
    pe_counts: Sequence[int] = tuple(range(1, 17)),
    nelems: int = 12,
    itemsize: int = 8,
    pairs: Collection[tuple[str, str]] | None = None,
) -> Iterator[tuple[str, Schedule]]:
    """Yield ``(label, schedule)`` for every builtin algorithm and shape.

    Covers every :data:`BUILTIN_ALGORITHMS` pair (or only those in
    ``pairs``) at each PE count in ``pe_counts`` with degenerate, uniform
    and ragged call shapes, and the collectives in :data:`STRIDED` at
    stride 2 as well.
    """
    for collective, algorithm in BUILTIN_ALGORITHMS:
        if pairs is not None and (collective, algorithm) not in pairs:
            continue
        for n_pes in pe_counts:
            for stride in (1, 2) if collective in STRIDED else (1,):
                tag = f" stride={stride}" if stride > 1 else ""
                for desc, sched in _shapes_for(collective, algorithm, n_pes,
                                               nelems, itemsize, stride):
                    yield (f"{collective}:{algorithm} n_pes={n_pes} "
                           f"{desc}{tag}", sched)
