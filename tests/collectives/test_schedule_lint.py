"""The schedule linter: builtins lint clean, broken schedules get caught.

The first half is the CI ``schedule-lint`` gate in-process: every
builtin ``(collective, algorithm)`` pair compiles and lints clean at
1–16 PEs, at stride 1 and — for the collectives that take one — 2.
The second half hand-builds minimally broken schedules — one per lint
check — and asserts the right check fires, so the linter can't
silently rot into always-green.
"""

from __future__ import annotations

import pytest

from repro.collectives.allreduce import compile_allreduce
from repro.collectives.broadcast import compile_broadcast
from repro.collectives.schedule import lint_schedule
from repro.collectives.schedule.ir import (
    AUX_COPY,
    OP_COPY,
    OP_GET,
    OP_PUT,
    Buffer,
    Rows,
    Schedule,
    pipeline_skeleton,
    skeleton,
)
from repro.collectives.schedule.registry import (
    BUILTIN_ALGORITHMS,
    builtin_schedules,
)


@pytest.mark.parametrize("collective,algorithm", BUILTIN_ALGORITHMS)
def test_builtin_algorithms_lint_clean(collective, algorithm):
    seen = 0
    for label, sched in builtin_schedules():
        if not label.startswith(f"{collective}:{algorithm} "):
            continue
        seen += 1
        issues = lint_schedule(sched)
        assert not issues, (
            f"{label}: " + "; ".join(str(i) for i in issues))
    # 16 PE counts × at least one shape each.
    assert seen >= 16


def _two_rank(buffers, rows=None, barriers=(1, 1), deliver=()):
    """A 2-PE schedule whose ``rows`` all sit in the prologue, rank r
    passing ``barriers[r]`` barriers."""
    return _schedule(buffers, rows, [skeleton(k, (), 0) for k in barriers],
                     deliver)


def _schedule(buffers, rows, skeletons, deliver=()):
    """Rank r of ``rows`` has ``skeletons[r]``."""
    return Schedule.from_rows(
        "test", "test", len(skeletons), 8, rows or Rows(), skeletons,
        skeleton_of=range(len(skeletons)), buffers=buffers, deliver=deliver)


def _step(rank, op, a, b, nelems, peer=None, phase=0, section=0):
    """Rows holding one step of stride 1."""
    rows = Rows()
    rows.add(rank, section, phase, op, a, b, nelems, 1, peer,
             AUX_COPY if op == OP_COPY else 0)
    return rows


_SYM = Buffer("s", "scratch", 64, symmetric=True)
_DST = Buffer("dest", "user", 64)
#: Table indices of ``_DST`` and ``_SYM`` in ``(_DST, _SYM, ...)``.
D, S = 0, 1


def _checks(issues):
    return {i.check for i in issues}


class TestBrokenSchedules:
    def test_mismatched_barrier_counts_is_deadlock(self):
        sched = _two_rank((_DST, _SYM), barriers=(2, 1))
        assert "deadlock" in _checks(lint_schedule(sched))

    def test_self_peer_is_flagged(self):
        sched = _two_rank((_DST, _SYM),
                          _step(0, OP_PUT, (S, 0), (S, 0), 1, peer=0))
        assert "peers" in _checks(lint_schedule(sched))

    def test_peer_out_of_range(self):
        sched = _two_rank((_DST, _SYM),
                          _step(0, OP_GET, (S, 0), (S, 0), 1, peer=5))
        assert "peers" in _checks(lint_schedule(sched))

    def test_remote_access_to_private_buffer(self):
        priv = Buffer("p", "private", 64)
        sched = _two_rank((_DST, _SYM, priv),
                          _step(0, OP_GET, (S, 0), (2, 0), 1, peer=1))
        issues = lint_schedule(sched)
        assert any("non-symmetric" in i.message for i in issues), issues

    def test_out_of_bounds_access(self):
        sched = _two_rank((_DST, _SYM),
                          _step(0, OP_COPY, (D, 0), (S, 0), 100))
        assert "bounds" in _checks(lint_schedule(sched))

    def test_write_write_overlap_in_one_phase(self):
        # Ranks 1 and 2 both put into rank 0's scratch bytes 0..8 with
        # no barrier between: a data race across origins.
        rows = _step([1, 2], OP_PUT, (S, 0), (S, 8), 1, peer=0)
        sched = _schedule((_DST, _SYM), rows, [skeleton(1, (), 0)] * 3)
        assert "overlap" in _checks(lint_schedule(sched))

    def test_remote_write_vs_local_read_overlap(self):
        rows = _step(0, OP_COPY, (D, 0), (S, 0), 1)
        rows.add(1, 0, 0, OP_PUT, (S, 0), (S, 8), 1, 1, 0)
        sched = _two_rank((_DST, _SYM), rows)
        assert "overlap" in _checks(lint_schedule(sched))

    def test_barrier_separates_conflicting_phases(self):
        # Same steps as above but with a barrier between them: clean.
        rows = _step(0, OP_COPY, (D, 0), (S, 0), 1, phase=1)
        rows.add(1, 0, 0, OP_PUT, (S, 0), (S, 8), 1, 1, 0)
        sched = _two_rank((_DST, _SYM), rows, barriers=(2, 2))
        assert lint_schedule(sched) == []

    def test_unfulfilled_deliver_contract(self):
        sched = _two_rank((_DST, _SYM), deliver=((0, "dest", 0, 16),))
        assert "conservation" in _checks(lint_schedule(sched))

    def test_deliver_satisfied_by_local_copy(self):
        sched = _two_rank((_DST, _SYM), _step(0, OP_COPY, (D, 0), (S, 0), 2),
                          deliver=((0, "dest", 0, 16),))
        assert lint_schedule(sched) == []

    def test_deliver_satisfied_by_incoming_put(self):
        sched = _two_rank(
            (Buffer("dest", "user", 64, symmetric=True), _SYM),
            _step(1, OP_PUT, (D, 0), (S, 0), 2, peer=0),
            deliver=((0, "dest", 0, 16),))
        assert lint_schedule(sched) == []

    def test_strided_chunks_cover_the_holes_between_them(self):
        """Two chunks of one stride-2 payload: the first's last element
        ends 8 bytes before the second's first begins.  That hole holds
        no element of the payload, so the contract is kept; drop the
        second chunk and it is broken from the hole on."""
        dest = Buffer("dest", "user", 96, symmetric=True)
        deliver = ((0, "dest", 0, 88),)

        def chunks(*offsets):
            rows = Rows()
            rows.add(1, 0, 0, OP_PUT, (D, list(offsets)), (S, 0), 3, 2, 0)
            return rows

        kept = _two_rank((dest, _SYM), chunks(0, 48), deliver=deliver)
        assert lint_schedule(kept) == []
        broken = _two_rank((dest, _SYM), chunks(0), deliver=deliver)
        assert [i.message for i in lint_schedule(broken)] == [
            "deliver contract [0, 88) of 'dest' on rank 0 only covered up "
            "to byte 48"]

    @pytest.mark.parametrize("stride", [2, 3])
    def test_strided_chunked_algorithms_lint_clean(self, stride):
        """The compilers that split a payload into chunks: ring broadcast
        and the dual-pipelined allreduce."""
        for n_pes in (2, 3, 5, 8, 12):
            for sched in (
                    compile_broadcast(n_pes, n_pes - 1, 12, stride, 8,
                                      algorithm="ring"),
                    compile_allreduce(n_pes, 12, stride, 8, "sum",
                                      algorithm="dual-pipelined",
                                      segments=3)):
                assert lint_schedule(sched) == [], sched.describe()

    def test_non_symmetric_scratch_rejected(self):
        bad = Buffer("s", "scratch", 64, symmetric=False)
        sched = _two_rank((_DST, bad))
        assert "buffers" in _checks(lint_schedule(sched))

    def test_out_of_range_peer_with_per_rank_extents_is_an_issue(self):
        """The peers pass reports the step; the bounds pass must not
        then index the per-rank extent tuple with the bad PE (it raised
        IndexError, and a negative peer read another rank's extent)."""
        ragged = Buffer("d", "user", (16, 16), symmetric=True)
        for peer in (5, -1):
            sched = _two_rank((ragged, _SYM),
                              _step(0, OP_PUT, (0, 0), (S, 0), 2, peer))
            issues = lint_schedule(sched)
            assert [i.check for i in issues] == ["peers"], issues
            assert f"peer {peer} outside group of 2" in issues[0].message

    def test_zero_length_access_is_not_an_overlap(self):
        """An empty range strictly inside another touches nothing."""
        buf = Buffer("d", "user", 64, symmetric=True)
        rows = _step(0, OP_PUT, (0, 8), (S, 8), 0, peer=1)
        rows.add(1, 0, 0, OP_COPY, (S, 0), (0, 0), 2, 1, aux=AUX_COPY)
        sched = _two_rank((buf, _SYM), rows)
        assert lint_schedule(sched) == []

    def test_stage_count_mismatch(self):
        sched = _schedule((_DST, _SYM), None, [
            skeleton(0, [(0, ())], 0), skeleton(0, [(0, ()), (1, ())], 0)])
        issues = lint_schedule(sched)
        assert issues  # structure issues short-circuit the rest


class TestBrokenPipelines:
    """Hand-built broken Pipeline blocks: each new hazard rule fires.

    Each rank runs one block at index 0 and nothing else, so round
    ``t`` is section ``t + 1`` and phase ``t``; a row of group ``g``
    in round ``t`` is that group's segment ``t - g``."""

    def _pipe_pair(self, rows, shape0, shape1):
        """``shape`` is a block's ``(segments, groups)`` on that rank."""
        return _schedule((_DST, _SYM), rows, [
            pipeline_skeleton(0, segments, groups, (), 0)
            for segments, groups in (shape0, shape1)])

    def test_clean_pipeline_passes(self):
        """Producer writes segment k in round k; the consumer reads it
        one round later — exactly the wavefront contract."""
        rows = Rows()
        # Rank 0, group 0: segments 0 and 1 in rounds 0 and 1.
        rows.add(0, [1, 2], [0, 1], OP_COPY, (S, [0, 8]), (D, [0, 8]), 1,
                 aux=AUX_COPY, group=0)
        # Rank 1, group 1: segments 0 and 1 in rounds 1 and 2.
        rows.add(1, [2, 3], [1, 2], OP_GET, (D, [0, 8]), (S, [0, 8]), 1,
                 peer=0, group=1)
        sched = self._pipe_pair(rows, (2, 2), (2, 2))
        assert lint_schedule(sched) == []

    def test_segment_count_mismatch_is_deadlock(self):
        """Ranks disagreeing on S lower to different round counts — the
        structure signature catches it before any barrier hangs."""
        issues = lint_schedule(self._pipe_pair(None, (2, 1), (3, 1)))
        assert "deadlock" in _checks(issues)

    def test_cross_segment_ordering_violation(self):
        """A remote read of bytes produced only in a *later* round of
        the same pipeline observes stale data — the staleness bug that
        wrong segment boundaries introduce."""
        rows = Rows()
        rows.add(0, 1, 0, OP_GET, (D, 0), (S, 0), 1, peer=1, group=0)
        rows.add(1, 2, 1, OP_COPY, (S, 0), (D, 0), 1, aux=AUX_COPY, group=1)
        issues = lint_schedule(self._pipe_pair(rows, (1, 2), (1, 2)))
        assert any(i.check == "pipeline" and "cross-segment" in i.message
                   for i in issues)
