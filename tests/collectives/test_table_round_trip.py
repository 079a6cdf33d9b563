"""The compilers that emit step-table rows agree with their own tree.

Binomial, linear and ring broadcast, binomial and linear reduce, and
doubling, Rabenseifner and ring allreduce write their
:class:`~repro.collectives.schedule.ir.StepTable` directly; their tree
of dataclasses is a view rebuilt from those rows.  Walking that tree
the way a hand-built schedule is walked (``StepTable.of_tree``) must
give back the same table — every column, every rank's barrier
skeleton and each row's section — over PE counts, roots, empty, single
and ragged payloads, strides and element sizes.  Comparing and hashing
such schedules reads the table and never builds the tree.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.allreduce import compile_allreduce
from repro.collectives.broadcast import compile_broadcast
from repro.collectives.reduce import compile_reduce
from repro.collectives.schedule.ir import StepTable

from .helpers import ROW_FAMILIES


@st.composite
def compiled(draw):
    collective, algorithm = draw(st.sampled_from(ROW_FAMILIES))
    n_pes = draw(st.integers(1, 40))
    root = draw(st.integers(0, n_pes - 1))
    nelems = draw(st.sampled_from((0, 1, 7, 13, 2 * n_pes + 3)))
    stride = draw(st.integers(1, 3))
    itemsize = draw(st.sampled_from((1, 8, 16)))
    if collective == "broadcast":
        return compile_broadcast(
            n_pes, root, nelems, stride, itemsize, algorithm=algorithm,
            copy_to_root_dest=draw(st.booleans()))
    if collective == "reduce":
        return compile_reduce(n_pes, root, nelems, stride, itemsize, "sum",
                              algorithm=algorithm)
    return compile_allreduce(n_pes, nelems, stride, itemsize, "sum",
                             algorithm=algorithm)


@settings(max_examples=300, deadline=None)
@given(compiled())
def test_rows_equal_the_walk_of_their_tree(sched):
    rows = sched.table
    # The same schedule written as a tree: its table is one walk of it.
    walked = StepTable.of_tree(dataclasses.replace(sched))
    for name in StepTable.COLUMNS + ("section", "barriers"):
        assert np.array_equal(getattr(rows, name), getattr(walked, name)), \
            name
    assert (rows.names, rows.n_declared) == (walked.names,
                                              walked.n_declared)
    assert [rows.skeletons[i] for i in rows.skeleton_of.tolist()] == \
        [walked.skeletons[i] for i in walked.skeleton_of.tolist()]
    assert rows.same(walked)
    assert (rows.unknown, rows.claims, rows.faults) == ((), (), ())


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
