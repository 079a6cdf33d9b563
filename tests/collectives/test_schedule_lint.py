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
    BARRIER,
    Buffer,
    Copy,
    Get,
    Pipeline,
    Put,
    RankProgram,
    Schedule,
    Stage,
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


def _two_rank(buffers, prog0, prog1, deliver=()):
    return Schedule(
        collective="test", algorithm="test", n_pes=2, itemsize=8,
        buffers=buffers, programs=(prog0, prog1), deliver=deliver,
    )


_SYM = Buffer("s", "scratch", 64, symmetric=True)
_DST = Buffer("dest", "user", 64)


def _checks(issues):
    return {i.check for i in issues}


class TestBrokenSchedules:
    def test_mismatched_barrier_counts_is_deadlock(self):
        sched = _two_rank(
            (_DST, _SYM),
            RankProgram(0, (BARRIER, BARRIER)),
            RankProgram(1, (BARRIER,)),
        )
        assert "deadlock" in _checks(lint_schedule(sched))

    def test_self_peer_is_flagged(self):
        sched = _two_rank(
            (_DST, _SYM),
            RankProgram(0, (Put("s", 0, "s", 0, 1, 1, 0), BARRIER)),
            RankProgram(1, (BARRIER,)),
        )
        assert "peers" in _checks(lint_schedule(sched))

    def test_peer_out_of_range(self):
        sched = _two_rank(
            (_DST, _SYM),
            RankProgram(0, (Get("s", 0, "s", 0, 1, 1, 5), BARRIER)),
            RankProgram(1, (BARRIER,)),
        )
        assert "peers" in _checks(lint_schedule(sched))

    def test_remote_access_to_private_buffer(self):
        priv = Buffer("p", "private", 64)
        sched = _two_rank(
            (_DST, _SYM, priv),
            RankProgram(0, (Get("s", 0, "p", 0, 1, 1, 1), BARRIER)),
            RankProgram(1, (BARRIER,)),
        )
        issues = lint_schedule(sched)
        assert any("non-symmetric" in i.message for i in issues), issues

    def test_out_of_bounds_access(self):
        sched = _two_rank(
            (_DST, _SYM),
            RankProgram(0, (Copy("dest", 0, "s", 0, 100, 1), BARRIER)),
            RankProgram(1, (BARRIER,)),
        )
        assert "bounds" in _checks(lint_schedule(sched))

    def test_write_write_overlap_in_one_phase(self):
        # Ranks 1 and 2 both put into rank 0's scratch bytes 0..8 with
        # no barrier between: a data race across origins.
        sched = Schedule(
            collective="test", algorithm="test", n_pes=3, itemsize=8,
            buffers=(_DST, _SYM),
            programs=(
                RankProgram(0, (BARRIER,)),
                RankProgram(1, (Put("s", 0, "s", 8, 1, 1, 0), BARRIER)),
                RankProgram(2, (Put("s", 0, "s", 8, 1, 1, 0), BARRIER)),
            ),
        )
        assert "overlap" in _checks(lint_schedule(sched))

    def test_remote_write_vs_local_read_overlap(self):
        sched = _two_rank(
            (_DST, _SYM),
            RankProgram(0, (Copy("dest", 0, "s", 0, 1, 1), BARRIER)),
            RankProgram(1, (Put("s", 0, "s", 8, 1, 1, 0), BARRIER)),
        )
        assert "overlap" in _checks(lint_schedule(sched))

    def test_barrier_separates_conflicting_phases(self):
        # Same steps as above but with a barrier between them: clean.
        sched = _two_rank(
            (_DST, _SYM),
            RankProgram(0, (BARRIER, Copy("dest", 0, "s", 0, 1, 1),
                            BARRIER)),
            RankProgram(1, (Put("s", 0, "s", 8, 1, 1, 0), BARRIER, BARRIER)),
        )
        assert lint_schedule(sched) == []

    def test_unfulfilled_deliver_contract(self):
        sched = _two_rank(
            (_DST, _SYM),
            RankProgram(0, (BARRIER,)),
            RankProgram(1, (BARRIER,)),
            deliver=((0, "dest", 0, 16),),
        )
        assert "conservation" in _checks(lint_schedule(sched))

    def test_deliver_satisfied_by_local_copy(self):
        sched = _two_rank(
            (_DST, _SYM),
            RankProgram(0, (Copy("dest", 0, "s", 0, 2, 1), BARRIER)),
            RankProgram(1, (BARRIER,)),
            deliver=((0, "dest", 0, 16),),
        )
        assert lint_schedule(sched) == []

    def test_deliver_satisfied_by_incoming_put(self):
        sched = _two_rank(
            (Buffer("dest", "user", 64, symmetric=True), _SYM),
            RankProgram(0, (BARRIER,)),
            RankProgram(1, (Put("dest", 0, "s", 0, 2, 1, 0), BARRIER)),
            deliver=((0, "dest", 0, 16),),
        )
        assert lint_schedule(sched) == []

    def test_strided_chunks_cover_the_holes_between_them(self):
        """Two chunks of one stride-2 payload: the first's last element
        ends 8 bytes before the second's first begins.  That hole holds
        no element of the payload, so the contract is kept; drop the
        second chunk and it is broken from the hole on."""
        dest = Buffer("dest", "user", 96, symmetric=True)
        first = Put("dest", 0, "s", 0, 3, 2, 0)
        second = Put("dest", 48, "s", 0, 3, 2, 0)
        deliver = ((0, "dest", 0, 88),)
        kept = _two_rank((dest, _SYM), RankProgram(0, (BARRIER,)),
                         RankProgram(1, (first, second, BARRIER)), deliver)
        assert lint_schedule(kept) == []
        broken = _two_rank((dest, _SYM), RankProgram(0, (BARRIER,)),
                           RankProgram(1, (first, BARRIER)), deliver)
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
        sched = _two_rank(
            (_DST, bad),
            RankProgram(0, (BARRIER,)),
            RankProgram(1, (BARRIER,)),
        )
        assert "buffers" in _checks(lint_schedule(sched))

    def test_out_of_range_peer_with_per_rank_extents_is_an_issue(self):
        """The peers pass reports the step; the bounds pass must not
        then index the per-rank extent tuple with the bad PE (it raised
        IndexError, and a negative peer read another rank's extent)."""
        ragged = Buffer("d", "user", (16, 16), symmetric=True)
        for peer in (5, -1):
            sched = _two_rank(
                (ragged, _SYM),
                RankProgram(0, (Put("d", 0, "s", 0, 2, 1, peer), BARRIER)),
                RankProgram(1, (BARRIER,)),
            )
            issues = lint_schedule(sched)
            assert [i.check for i in issues] == ["peers"], issues
            assert f"peer {peer} outside group of 2" in issues[0].message

    def test_zero_length_access_is_not_an_overlap(self):
        """An empty range strictly inside another touches nothing."""
        buf = Buffer("d", "user", 64, symmetric=True)
        sched = _two_rank(
            (buf, _SYM),
            RankProgram(0, (Put("d", 8, "s", 8, 0, 1, 1), BARRIER)),
            RankProgram(1, (Copy("s", 0, "d", 0, 2, 1), BARRIER)),
        )
        assert lint_schedule(sched) == []

    def test_stage_count_mismatch(self):
        sched = _two_rank(
            (_DST, _SYM),
            RankProgram(0, (), (Stage(0, (BARRIER,)),)),
            RankProgram(1, (), (Stage(0, (BARRIER,)),
                                Stage(1, (BARRIER,)))),
        )
        issues = lint_schedule(sched)
        assert issues  # structure issues short-circuit the rest


class TestBrokenPipelines:
    """Hand-built broken Pipeline blocks: each new hazard rule fires."""

    def _pipe_pair(self, pipe0, pipe1):
        return _two_rank(
            (_DST, _SYM),
            RankProgram(0, (), (pipe0,)),
            RankProgram(1, (), (pipe1,)),
        )

    def test_clean_pipeline_passes(self):
        """Producer writes segment k in round k; the consumer reads it
        one round later — exactly the wavefront contract."""
        producer = Pipeline(0, 2, (
            ((Copy("s", 0, "dest", 0, 1, 1),),
             (Copy("s", 8, "dest", 8, 1, 1),)),
            ((), ()),
        ))
        consumer = Pipeline(0, 2, (
            ((), ()),
            ((Get("dest", 0, "s", 0, 1, 1, 0),),
             (Get("dest", 8, "s", 8, 1, 1, 0),)),
        ))
        sched = _two_rank(
            (_DST, _SYM),
            RankProgram(0, (), (producer,)),
            RankProgram(1, (), (consumer,)),
        )
        assert lint_schedule(sched) == []

    def test_ragged_group_is_flagged(self):
        ragged = Pipeline(0, 2, ((((),)),))  # 1 segment tuple, S=2
        ok = Pipeline(0, 2, (((), ()),))
        issues = lint_schedule(self._pipe_pair(ragged, ok))
        assert "pipeline" in _checks(issues)

    def test_barrier_inside_group_is_flagged(self):
        bad = Pipeline(0, 1, (((BARRIER,),),))
        issues = lint_schedule(self._pipe_pair(bad, bad))
        assert "pipeline" in _checks(issues)

    def test_segment_count_mismatch_is_deadlock(self):
        """Ranks disagreeing on S lower to different round counts — the
        structure signature catches it before any barrier hangs."""
        two = Pipeline(0, 2, (((), ()),))
        three = Pipeline(0, 3, (((), (), ()),))
        issues = lint_schedule(self._pipe_pair(two, three))
        assert "deadlock" in _checks(issues)

    def test_cross_segment_ordering_violation(self):
        """A remote read of bytes produced only in a *later* round of
        the same pipeline observes stale data — the staleness bug that
        wrong segment boundaries introduce."""
        reader = Pipeline(0, 1, (
            ((Get("dest", 0, "s", 0, 1, 1, 1),),),
            ((),),
        ))
        writer = Pipeline(0, 1, (
            ((),),
            ((Copy("s", 0, "dest", 0, 1, 1),),),
        ))
        issues = lint_schedule(self._pipe_pair(reader, writer))
        assert any(i.check == "pipeline" and "cross-segment" in i.message
                   for i in issues)
