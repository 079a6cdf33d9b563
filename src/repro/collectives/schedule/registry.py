"""Enumeration of every builtin schedule compiler, for the linter.

Each collective front-end compiles calls through a pure, cached
``compile_*`` function; this module knows them all and can instantiate
representative call shapes for each ``(collective, algorithm)`` pair at
a range of PE counts.  ``python -m repro.collectives.schedule`` lints
everything this module yields, which is also what the CI
``schedule-lint`` job and ``tests/collectives/test_schedule_lint.py``
run.

The shapes are chosen to hit the structurally distinct paths of every
compiler: degenerate (one PE, zero elements), power-of-two and
non-power-of-two PE counts, non-zero roots, for the vector collectives
ragged per-PE counts including zero-count PEs, for the hierarchical
algorithms a sequential and a scattered node layout, and for the
collectives that take an element stride a stride of 2.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .ir import Schedule

__all__ = ["BUILTIN_ALGORITHMS", "builtin_schedules"]

#: Every builtin ``(collective, algorithm)`` pair with a compiler.
BUILTIN_ALGORITHMS: tuple[tuple[str, str], ...] = (
    ("broadcast", "binomial"),
    ("broadcast", "linear"),
    ("broadcast", "ring"),
    ("broadcast", "hierarchical"),
    ("reduce", "binomial"),
    ("reduce", "linear"),
    ("reduce", "hierarchical"),
    ("allreduce", "doubling"),
    ("allreduce", "rabenseifner"),
    ("allreduce", "ring"),
    ("allreduce", "dual-pipelined"),
    ("scan", "hillis-steele"),
    ("scatter", "binomial"),
    ("gather", "binomial"),
    ("allgather", "tree"),
    ("allgather", "dissemination"),
    ("allgather", "pat"),
    ("alltoall", "rotated"),
    ("reduce_scatter", "ring"),
    ("reduce_scatter", "pat"),
    ("superstep", "fused"),
)


def _ragged(n_pes: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """A ragged counts/displacements shape with a zero-count PE."""
    counts = tuple(0 if i == n_pes // 2 and n_pes > 1 else (i % 3) + 1
                   for i in range(n_pes))
    disps, off = [], 0
    for c in counts:
        disps.append(off)
        off += c
    return counts, tuple(disps), off


def _shapes_for(collective: str, algorithm: str, n_pes: int,
                nelems: int, itemsize: int,
                stride: int = 1) -> Iterator[tuple[str, Schedule]]:
    """The call shapes of one pair at one PE count; ``stride`` reaches
    the collectives in :data:`STRIDED`."""
    roots = sorted({0, n_pes - 1, n_pes // 2})
    if algorithm == "hierarchical":
        from ..hierarchy import (compile_hierarchical_broadcast,
                                 compile_hierarchical_reduce)

        # The ``locality`` record's placements over four nodes.
        per_node = -(-n_pes // 4)
        for layout, nodes in (
                ("sequential", tuple(r // per_node for r in range(n_pes))),
                ("scattered", tuple(r % 4 for r in range(n_pes)))):
            for root in roots:
                for ne in (0, nelems):
                    yield (f"root={root} nelems={ne} nodes={layout}",
                           compile_hierarchical_broadcast(
                               nodes, root, ne, stride, itemsize)
                           if collective == "broadcast" else
                           compile_hierarchical_reduce(
                               nodes, root, ne, stride, itemsize, "sum"))
    elif collective == "broadcast":
        from ..broadcast import compile_broadcast

        for root in roots:
            for ne in (0, nelems):
                yield (f"root={root} nelems={ne}",
                       compile_broadcast(n_pes, root, ne, stride, itemsize,
                                         algorithm=algorithm))
    elif collective == "reduce":
        from ..reduce import compile_reduce

        for root in roots:
            for ne in (0, nelems):
                yield (f"root={root} nelems={ne}",
                       compile_reduce(n_pes, root, ne, stride, itemsize,
                                      "sum", algorithm=algorithm))
    elif collective == "allreduce":
        from ..allreduce import compile_allreduce

        for ne in (0, nelems):
            yield (f"nelems={ne}",
                   compile_allreduce(n_pes, ne, stride, itemsize, "sum",
                                     algorithm=algorithm))
        if algorithm == "dual-pipelined":
            # Segment counts straddling nelems hit the pipelined
            # wavefront's clamping and idle-round paths.
            for segs in (1, 3, nelems + 1):
                yield (f"nelems={nelems} segments={segs}",
                       compile_allreduce(n_pes, nelems, stride, itemsize,
                                         "sum", algorithm=algorithm,
                                         segments=segs))
    elif collective == "scan":
        from ..scan import compile_scan

        for inclusive in (True, False):
            yield (f"inclusive={inclusive}",
                   compile_scan(n_pes, nelems, stride, itemsize, "sum",
                                inclusive))
    elif collective in ("scatter", "gather"):
        from ..gather import compile_gather
        from ..scatter import compile_scatter

        compiler = compile_scatter if collective == "scatter" else \
            compile_gather
        uniform = tuple([nelems] * n_pes)
        udisp = tuple(i * nelems for i in range(n_pes))
        counts, disps, total = _ragged(n_pes)
        for root in roots:
            yield (f"root={root} uniform",
                   compiler(n_pes, root, uniform, udisp, nelems * n_pes,
                            itemsize))
            yield (f"root={root} ragged",
                   compiler(n_pes, root, counts, disps, total, itemsize))
    elif collective == "allgather":
        from ..extra import (compile_allgather, compile_allgather_pat,
                             compile_allgather_tree)

        uniform = tuple([nelems] * n_pes)
        udisp = tuple(i * nelems for i in range(n_pes))
        counts, disps, total = _ragged(n_pes)
        if algorithm == "pat":
            for segs in (1, 2, 4):
                yield (f"uniform segments={segs}",
                       compile_allgather_pat(n_pes, uniform, udisp,
                                             nelems * n_pes, itemsize, segs))
                yield (f"ragged segments={segs}",
                       compile_allgather_pat(n_pes, counts, disps, total,
                                             itemsize, segs))
        else:
            compiler = compile_allgather_tree if algorithm == "tree" \
                else compile_allgather
            yield ("uniform", compiler(n_pes, uniform, udisp,
                                       nelems * n_pes, itemsize))
            yield ("ragged", compiler(n_pes, counts, disps, total,
                                      itemsize))
    elif collective == "alltoall":
        from ..extra import compile_alltoall

        for ne in (0, nelems):
            yield (f"nelems_per_pe={ne}",
                   compile_alltoall(n_pes, ne, itemsize))
    elif collective == "reduce_scatter":
        from ..reduce_scatter import compile_reduce_scatter

        uniform = tuple([nelems] * n_pes)
        udisp = tuple(i * nelems for i in range(n_pes))
        counts, disps, total = _ragged(n_pes)
        seg_variants = (1, 2, 4) if algorithm == "pat" else (1,)
        for segs in seg_variants:
            tag = f" segments={segs}" if algorithm == "pat" else ""
            yield (f"uniform{tag}",
                   compile_reduce_scatter(n_pes, uniform, udisp,
                                          nelems * n_pes, itemsize, "sum",
                                          algorithm=algorithm,
                                          segments=segs))
            yield (f"ragged{tag}",
                   compile_reduce_scatter(n_pes, counts, disps, total,
                                          itemsize, "sum",
                                          algorithm=algorithm,
                                          segments=segs))
    elif collective == "superstep":
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
    else:  # pragma: no cover - registry/compiler drift
        raise ValueError(f"no shape generator for {collective!r}")


#: Collectives whose compilers take an element stride: their shapes are
#: also compiled at stride 2, where every chunked write leaves a hole
#: between its last element and the next chunk's first.
STRIDED = ("broadcast", "reduce", "allreduce", "scan")


def builtin_schedules(
    pe_counts: Sequence[int] = tuple(range(1, 17)),
    nelems: int = 12,
    itemsize: int = 8,
) -> Iterator[tuple[str, Schedule]]:
    """Yield ``(label, schedule)`` for every builtin algorithm and shape.

    Covers every :data:`BUILTIN_ALGORITHMS` pair at each PE count in
    ``pe_counts`` with degenerate, uniform and ragged call shapes, and
    the collectives in :data:`STRIDED` at stride 2 as well.
    """
    for collective, algorithm in BUILTIN_ALGORITHMS:
        for n_pes in pe_counts:
            for stride in (1, 2) if collective in STRIDED else (1,):
                tag = f" stride={stride}" if stride > 1 else ""
                for desc, sched in _shapes_for(collective, algorithm, n_pes,
                                               nelems, itemsize, stride):
                    yield (f"{collective}:{algorithm} n_pes={n_pes} "
                           f"{desc}{tag}", sched)
