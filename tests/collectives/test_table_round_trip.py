"""Every compiler's rows read back as the text ``repr`` renders.

Each compiler writes its :class:`~repro.collectives.schedule.ir.StepTable`
directly, and ``repr`` renders each rank's program straight from those
rows — a pipeline block regrouped by each row's group, or shown as its
rounds when a row of it names none.  For every registry pair, over PE
counts, roots, empty, single and ragged payloads (with a zero-count PE
and out-of-order, gapped displacements), segment counts, strides,
element sizes and node layouts: every rank's ``program(r).all_steps()``
walks its rows in order with a barrier over its section's block at each
gap, and the text holds one ``Pipeline(`` per such block and one
``Stage(`` per plain stage or round.  Comparing and hashing such
schedules reads the table and renders no text.
"""

from __future__ import annotations

from hypothesis import example, given, settings
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


def _shapes(table, r: int) -> tuple[int, int]:
    """How many ``Pipeline(`` and ``Stage(`` rank ``r``'s text holds: a
    block is one pipeline unless a row of it names no group, then it is
    its rounds; a plain stage is one stage."""
    shape = table.skeletons[table.skeleton_of[r]]
    rows = table.span(r)
    section, group = table.section[rows], table.group[rows]
    pipes = stages = 0
    at = 1  # sections[0] is the prologue
    for entry in shape.signature:
        if not isinstance(entry, tuple):
            stages += 1
            at += 1
            continue
        width = entry[3] + entry[2] - 1 if entry[3] else 0
        mine = (section >= at) & (section < at + width)
        if (group[mine] >= 0).all():
            pipes += 1
        else:
            stages += width
        at += width
    return pipes, stages


#: Two pipelined allreduces fused: their merged rounds name no group.
_FUSED_ROUNDS = fuse_schedules((compile_allreduce(
    5, 7, 1, 8, "sum", algorithm="dual-pipelined", segments=2),) * 2)


@settings(max_examples=300, deadline=None)
@given(compiled())
@example(_FUSED_ROUNDS)
def test_text_walks_the_rows(sched):
    table = sched.table
    pipes = stages = 0
    for r in range(sched.n_pes):
        rows = table.span(r)
        steps = list(sched.program(r).all_steps())
        assert len(steps) == \
            rows.stop - rows.start + int(table.barriers[r]), r
        assert [s for s in steps if not s.startswith("Barrier(")] == \
            [table.step_text(i) for i in range(rows.start, rows.stop)], r
        p, s = _shapes(table, r)
        pipes, stages = pipes + p, stages + s
    text = repr(sched)
    assert text.count("Pipeline(") == pipes
    assert text.count("Stage(") == stages


def test_equality_and_hash_read_the_table_not_the_text(monkeypatch):
    """Two equal schedules built from rows (the compile cache evicted
    between them, as the replay's rendezvous can see) compare equal and
    hash alike without rendering a step's text; a different shape does
    not compare equal."""
    from repro.collectives import allreduce
    from repro.collectives.schedule.ir import StepTable

    def no_text(*args, **kwargs):
        raise AssertionError("a step's text was rendered")

    first = compile_allreduce(12, 9, 1, 8, "sum", algorithm="rabenseifner")
    allreduce._compile_folded.cache_clear()
    monkeypatch.setattr(StepTable, "_texts", no_text)
    again = compile_allreduce(12, 9, 1, 8, "sum", algorithm="rabenseifner")
    other = compile_allreduce(12, 9, 2, 8, "sum", algorithm="rabenseifner")
    assert again is not first
    assert again == first and hash(again) == hash(first)
    assert other != first
