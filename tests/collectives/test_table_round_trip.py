"""Every compiler's tree view reads its step-table rows back.

Each compiler writes its :class:`~repro.collectives.schedule.ir.StepTable`
directly; its tree of dataclasses is a read-only view rebuilt from those
rows — a :class:`~repro.collectives.schedule.ir.Pipeline` block from
each row's group.  Every rank's view must walk the same steps as its
rows laid out by section (``table.layout``, a barrier over the
section's block at each gap), and carry the stage signature of its
skeleton, for every registry pair, over PE counts, roots, empty, single
and ragged payloads (with a zero-count PE and out-of-order, gapped
displacements), segment counts, strides, element sizes and node
layouts.  Comparing and hashing such schedules reads the table and
never builds the tree.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.allreduce import compile_allreduce
from repro.collectives.broadcast import compile_broadcast
from repro.collectives.extra import (
    compile_allgather,
    compile_allgather_pat,
    compile_allgather_tree,
    compile_alltoall,
)
from repro.collectives.gather import compile_gather
from repro.collectives.hierarchy import (
    compile_hierarchical_broadcast,
    compile_hierarchical_reduce,
)
from repro.collectives.reduce import compile_reduce
from repro.collectives.reduce_scatter import compile_reduce_scatter
from repro.collectives.scan import compile_scan
from repro.collectives.scatter import compile_scatter
from repro.collectives.schedule.fuse import compile_widened, fuse_schedules
from repro.collectives.schedule.ir import Barrier, Pipeline
from repro.collectives.schedule.registry import BUILTIN_ALGORITHMS


@st.composite
def blocks(draw, n_pes):
    """Ragged per-PE counts with a zero-count PE, and disjoint
    displacements laid out in a drawn rank order with gaps."""
    counts = draw(st.lists(st.integers(0, 4), min_size=n_pes,
                           max_size=n_pes))
    counts[draw(st.integers(0, n_pes - 1))] = 0
    disps = [0] * n_pes
    off = 0
    for r in draw(st.permutations(range(n_pes))):
        off += draw(st.integers(0, 2))
        disps[r] = off
        off += counts[r]
    return tuple(counts), tuple(disps), sum(counts)


@st.composite
def compiled(draw):
    collective, algorithm = draw(st.sampled_from(BUILTIN_ALGORITHMS))
    n_pes = draw(st.integers(1, 40))
    root = draw(st.integers(0, n_pes - 1))
    nelems = draw(st.sampled_from((0, 1, 7, 13, 2 * n_pes + 3)))
    stride = draw(st.integers(1, 3))
    itemsize = draw(st.sampled_from((1, 8, 16)))
    segments = draw(st.sampled_from((1, 2, 4)))
    if algorithm == "hierarchical":
        # Any node layout: which of up to four nodes hosts each rank.
        nodes = tuple(draw(st.lists(st.integers(0, 3), min_size=n_pes,
                                    max_size=n_pes)))
        if collective == "broadcast":
            return compile_hierarchical_broadcast(
                nodes, root, nelems, stride, itemsize, draw(st.booleans()))
        return compile_hierarchical_reduce(nodes, root, nelems, stride,
                                           itemsize, "sum")
    if collective == "broadcast":
        return compile_broadcast(
            n_pes, root, nelems, stride, itemsize, algorithm=algorithm,
            copy_to_root_dest=draw(st.booleans()))
    if collective == "reduce":
        return compile_reduce(n_pes, root, nelems, stride, itemsize, "sum",
                              algorithm=algorithm)
    if collective == "allreduce":
        return compile_allreduce(n_pes, nelems, stride, itemsize, "sum",
                                 algorithm=algorithm, segments=segments)
    if collective == "scan":
        return compile_scan(n_pes, nelems, stride, itemsize, "sum",
                            draw(st.booleans()))
    if collective == "alltoall":
        return compile_alltoall(n_pes, nelems, itemsize)
    if collective == "superstep":
        if draw(st.booleans()):
            return compile_widened("allreduce", "doubling", n_pes, 0, "sum",
                                   itemsize, (nelems + 1, 0, 3))
        return fuse_schedules((
            compile_broadcast(n_pes, root, nelems, 1, itemsize),
            compile_reduce(n_pes, 0, nelems + 1, 1, itemsize, "sum"),
            compile_allreduce(n_pes, nelems, 1, itemsize, "sum")))
    counts, disps, total = draw(blocks(n_pes))
    if collective == "scatter":
        return compile_scatter(n_pes, root, counts, disps, total, itemsize)
    if collective == "gather":
        return compile_gather(n_pes, root, counts, disps, total, itemsize)
    if collective == "allgather":
        if algorithm == "pat":
            return compile_allgather_pat(n_pes, counts, disps, total,
                                         itemsize, segments)
        if algorithm == "tree":
            return compile_allgather_tree(n_pes, counts, disps, total,
                                          itemsize)
        return compile_allgather(n_pes, counts, disps, total, itemsize)
    assert collective == "reduce_scatter", collective
    return compile_reduce_scatter(n_pes, counts, disps, total, itemsize,
                                  "sum", algorithm=algorithm,
                                  segments=segments)


@settings(max_examples=300, deadline=None)
@given(compiled())
def test_rows_equal_the_walk_of_their_tree(sched):
    table = sched.table
    for r in range(sched.n_pes):
        rows, parts = table.layout(r)
        laid_out = [Barrier(sec.block) if k is None
                    else table.step(rows.start + k)
                    for sec, items in parts for k in items]
        view = sched.program(r)
        assert list(view.all_steps()) == laid_out, r
        signature = tuple(
            ("pipeline", st.index, st.segments, len(st.groups))
            if isinstance(st, Pipeline) else st.index for st in view.stages)
        assert signature == \
            table.skeletons[table.skeleton_of[r]].signature, r


def test_equality_and_hash_read_the_table_not_the_tree(monkeypatch):
    """Two equal schedules built from rows (the compile cache evicted
    between them, as the replay's rendezvous can see) compare equal and
    hash alike without building either tree; a different shape does
    not compare equal."""
    from repro.collectives import allreduce
    from repro.collectives.schedule.ir import RankProgram

    def no_tree(*args, **kwargs):
        raise AssertionError("a RankProgram was built")

    first = compile_allreduce(12, 9, 1, 8, "sum", algorithm="rabenseifner")
    allreduce._compile_folded.cache_clear()
    monkeypatch.setattr(RankProgram, "__init__", no_tree)
    again = compile_allreduce(12, 9, 1, 8, "sum", algorithm="rabenseifner")
    other = compile_allreduce(12, 9, 2, 8, "sum", algorithm="rabenseifner")
    assert again is not first
    assert again == first and hash(again) == hash(first)
    assert other != first
