"""``Schedule.from_rows`` refuses rows that cannot mean anything.

A row whose rank, opcode, buffer index, section, phase or pipeline group
no schedule could hold raises ``ValueError`` naming the first such row,
before any consumer reads it (the linter used to raise ``IndexError`` on
some, and to pass others clean).  What a wrong row still *means* — a
peer outside the group, a name no buffer declares, an access past a
buffer's end — is the linter's to report, and is built without
complaint.  A rank argument outside ``[0, n_pes)`` is an ``IndexError``
rather than a wrapped or bare lookup.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.collectives.broadcast import compile_broadcast
from repro.collectives.schedule import lint_schedule
from repro.collectives.schedule.ir import (
    OP_FILL,
    OP_PUT,
    Buffer,
    Rows,
    Schedule,
    pipeline_skeleton,
    skeleton,
)

_BUFFERS = (Buffer("s", "scratch", 64, symmetric=True),)


def _schedule(shape, skeleton_of=None, **values):
    """A 2-PE schedule of one put, rank 0 to rank 1, with its columns
    overridden by ``values``.  ``shape`` is ``"stage"`` (one barrier of
    prologue, then a stage of one: the put is section 1, phase 1) or
    ``"pipeline"`` (a block of 2 groups over 2 segments: the put is
    group 1, segment 0, in round 1 — section 2, phase 1)."""
    rows = Rows()
    if shape == "stage":
        sk = skeleton(1, [(0, ())], 0)
        rows.add(0, 1, 1, OP_PUT, (0, 0), (0, 8), 1, 1, 1)
    else:
        sk = pipeline_skeleton(0, 2, 2, (), 0)
        rows.add(0, 2, 1, OP_PUT, (0, 0), (0, 8), 1, 1, 1, group=1)
    cols = rows.columns()
    for name, value in values.items():
        cols[name] = np.array([value], dtype=np.int64)
    return Schedule.from_rows("test", "test", 2, 8, cols, (sk,),
                              skeleton_of=skeleton_of, buffers=_BUFFERS)


def test_well_formed_rows_are_built():
    for shape in ("stage", "pipeline"):
        assert lint_schedule(_schedule(shape)) == []
    # Group 0 runs segment 1 in round 1; fusion writes -1.
    for group in (0, -1):
        assert lint_schedule(_schedule("pipeline", group=group)) == []


@pytest.mark.parametrize("values,match", [
    ({"rank": 5}, r"rank outside \[0, 2\)"),
    ({"rank": -1}, r"rank outside \[0, 2\)"),
    ({"a_buf": 9}, "a_buf wrong for op"),
    ({"b_buf": -2}, "b_buf wrong for op"),
    ({"op": 0}, "no step kind"),
    ({"op": 42}, "no step kind"),
    ({"op": OP_FILL}, "b_buf wrong for op"),
    ({"section": 9}, "section outside its rank's skeleton"),
    ({"section": -1}, "section outside its rank's skeleton"),
    ({"phase": 7}, "phase outside its section's barrier window"),
    ({"phase": 0}, "phase outside its section's barrier window"),
    ({"group": 0}, "group outside its round"),
])
def test_a_row_that_cannot_mean_anything_is_refused(values, match):
    with pytest.raises(ValueError, match=f"row 0 .*{match}"):
        _schedule("stage", **values)


@pytest.mark.parametrize("values,match", [
    # Round 1's rows come before its one barrier.
    ({"phase": 2}, "phase outside its section's barrier window"),
    # Group 2 is no group of 2.
    ({"group": 2}, "group outside its round"),
    ({"group": -2}, "group outside its round"),
    # Group 0 in round 2 would run segment 2 of 2.
    ({"section": 3, "phase": 2, "group": 0}, "group outside its round"),
])
def test_a_round_row_that_cannot_mean_anything_is_refused(values, match):
    with pytest.raises(ValueError, match=f"row 0 .*{match}"):
        _schedule("pipeline", **values)


def test_rows_out_of_program_order_are_refused():
    rows = Rows()
    rows.add([1, 0], 1, 1, OP_PUT, (0, 0), (0, 8), 1, 1, [0, 1])
    cols = rows.columns()
    cols["rank"] = cols["rank"][::-1].copy()
    with pytest.raises(ValueError, match="row 1 .*ranks out of order"):
        Schedule.from_rows("test", "test", 2, 8, cols,
                           (skeleton(1, [(0, ())], 0),), buffers=_BUFFERS)
    rows = Rows()
    rows.add(0, [1, 0], [1, 0], OP_PUT, (0, 0), (0, 8), 1, 1, 1)
    with pytest.raises(ValueError, match="row 1 .*runs backwards"):
        Schedule.from_rows("test", "test", 2, 8, rows,
                           (skeleton(1, [(0, ())], 0),), buffers=_BUFFERS)


def test_a_skeleton_record_that_cannot_mean_anything_is_refused():
    with pytest.raises(ValueError, match="not 2 indices into 1 skeletons"):
        _schedule("stage", skeleton_of=[0, 1])
    with pytest.raises(ValueError, match="not 2 indices into 1 skeletons"):
        _schedule("stage", skeleton_of=[0])
    with pytest.raises(ValueError, match="no segments"):
        Schedule.from_rows("test", "test", 2, 8, Rows(),
                           (pipeline_skeleton(1, 0, 1, (), 0),),
                           buffers=_BUFFERS)


def test_what_a_wrong_row_means_is_left_to_the_linter():
    rows = Rows()
    rows.add(0, 1, 1, OP_PUT, (0, 0), (1, 0), 1, 1, 1)
    ghost = Schedule.from_rows("test", "test", 2, 8, rows,
                               (skeleton(1, [(0, ())], 0),),
                               buffers=_BUFFERS, names=("s", "ghost"))
    for check, sched in (("peers", _schedule("stage", peer=7)),
                         ("buffers", ghost),
                         ("bounds", _schedule("stage", nelems=99))):
        assert check in {i.check for i in lint_schedule(sched)}, check


@pytest.mark.parametrize("rank", [-1, 4, 7])
def test_a_rank_outside_the_schedule_is_an_index_error(rank):
    sched = compile_broadcast(4, 0, 8, 1, 8)
    for ask in (sched.describe, sched.n_stage_spans, sched.program):
        with pytest.raises(IndexError,
                           match=rf"rank {rank} outside \[0, 4\)"):
            ask(rank)
