"""Unit tests for schedule widening and fusion (repro.collectives.schedule.fuse)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.collectives.allreduce import compile_allreduce
from repro.collectives.broadcast import compile_broadcast
from repro.collectives.reduce import compile_reduce
from repro.collectives.schedule.fuse import (
    WIDENABLE,
    compile_widened,
    fuse_schedules,
)
from repro.collectives.schedule.evaluate import evaluate_schedule
from repro.collectives.schedule.lint import lint_fused_schedule, lint_schedule
from repro.errors import FusionError, XbgasError


class TestCompileWidened:
    @pytest.mark.parametrize("n_pes", [1, 2, 3, 4, 8])
    def test_widened_allreduce_lints_clean(self, n_pes):
        sched = compile_widened("allreduce", "doubling", n_pes, 0, "sum",
                                8, (8, 16, 8))
        assert sched.algorithm == "doubling-widened"
        assert lint_schedule(sched) == []

    @pytest.mark.parametrize("collective,algorithm", sorted(WIDENABLE))
    def test_every_widenable_pair_compiles(self, collective, algorithm):
        sched = compile_widened(collective, algorithm, 4, 1, "sum", 8,
                                (4, 4))
        assert sched.collective == collective
        assert lint_schedule(sched) == []

    def test_per_request_user_buffers(self):
        sched = compile_widened("allreduce", "doubling", 4, 0, "sum", 8,
                                (8, 16))
        names = {b.name for b in sched.buffers}
        assert {"src0", "dest0", "src1", "dest1",
                "w:src", "w:dest"} <= names
        assert sched.buffer("src1").nbytes == 16 * 8
        assert sched.buffer("w:src").nbytes == 24 * 8

    def test_deliver_covers_every_request(self):
        sched = compile_widened("allreduce", "doubling", 3, 0, "sum", 8,
                                (8, 16))
        delivered = {(r, name) for r, name, _lo, _hi in sched.deliver}
        for r in range(3):
            assert (r, "dest0") in delivered
            assert (r, "dest1") in delivered

    def test_reduce_delivers_to_root_only(self):
        sched = compile_widened("reduce", "binomial", 4, 2, "sum", 8,
                                (8, 8))
        ranks = {r for r, _name, _lo, _hi in sched.deliver}
        assert ranks == {2}

    def test_zero_count_requests_skip_copies(self):
        sched = compile_widened("allreduce", "doubling", 2, 0, "sum", 8,
                                (8, 0, 8))
        delivered = {name for _r, name, _lo, _hi in sched.deliver}
        assert "dest1" not in delivered
        assert delivered >= {"dest0", "dest2"}

    def test_non_widenable_algorithm_rejected(self):
        with pytest.raises(FusionError):
            compile_widened("allreduce", "ring", 8, 0, "sum", 8, (8, 8))
        with pytest.raises(FusionError):
            compile_widened("allreduce", "rabenseifner", 8, 0, "sum", 8,
                            (8, 8))

    def test_bad_counts_rejected(self):
        with pytest.raises(FusionError):
            compile_widened("allreduce", "doubling", 4, 0, "sum", 8, ())
        with pytest.raises(FusionError):
            compile_widened("allreduce", "doubling", 4, 0, "sum", 8,
                            (8, -8))
        with pytest.raises(FusionError):
            compile_widened("allreduce", "doubling", 4, 0, "sum", 8,
                            (0, 0))

    def test_fusion_error_is_xbgas_error(self):
        """The flush path catches XbgasError-family failures to fall
        back to sequential execution."""
        assert issubclass(FusionError, XbgasError)

    def test_cached(self):
        a = compile_widened("allreduce", "doubling", 4, 0, "sum", 8,
                            (8, 8))
        b = compile_widened("allreduce", "doubling", 4, 0, "sum", 8,
                            (8, 8))
        assert a is b


class TestFuseSchedules:
    def _parts(self, n_pes=4):
        root = min(1, n_pes - 1)
        return (
            compile_broadcast(n_pes, 0, 8, 1, 8, algorithm="binomial"),
            compile_reduce(n_pes, root, 4, 1, 8, "sum",
                           algorithm="binomial"),
            compile_allreduce(n_pes, 16, 1, 8, "sum", algorithm="doubling"),
        )

    @pytest.mark.parametrize("n_pes", [1, 2, 3, 4, 8, 16])
    def test_fused_mixed_batch_lints_clean(self, n_pes):
        fused = fuse_schedules(self._parts(n_pes))
        assert fused.collective == "superstep"
        assert fused.algorithm == "fused"
        assert lint_fused_schedule(fused) == []

    def test_buffers_renamed_per_request(self):
        fused = fuse_schedules(self._parts())
        names = {b.name for b in fused.buffers}
        assert "r0:dest" in names and "r2:dest" in names
        assert all(":" in n for n in names)

    def test_deliver_remapped(self):
        parts = self._parts()
        fused = fuse_schedules(parts)
        want = {(r, f"r{i}:{name}", lo, hi)
                for i, s in enumerate(parts)
                for r, name, lo, hi in s.deliver}
        assert set(fused.deliver) == want

    def test_barrier_counts_align_across_ranks(self):
        """Every rank of the fused schedule passes the same number of
        barriers — the deadlock-freedom invariant fusion must keep."""
        fused = fuse_schedules(self._parts(8))
        assert len(set(fused.table.barriers.tolist())) == 1

    def test_single_schedule_fuses_to_itself_renamed(self):
        one = compile_allreduce(4, 8, 1, 8, "sum", algorithm="doubling")
        fused = fuse_schedules((one,))
        assert fused.n_pes == 4
        assert lint_fused_schedule(fused) == []

    def test_widened_schedules_fuse(self):
        """The flush path fuses *widened* sub-batches; the composition
        must still lint clean."""
        a = compile_widened("allreduce", "doubling", 4, 0, "sum", 8,
                            (8, 8))
        b = compile_widened("broadcast", "binomial", 4, 1, None, 8,
                            (4, 4, 4))
        fused = fuse_schedules((a, b))
        assert lint_fused_schedule(fused) == []

    def test_empty_rejected(self):
        with pytest.raises(FusionError):
            fuse_schedules(())

    def test_mismatched_group_size_rejected(self):
        a = compile_allreduce(4, 8, 1, 8, "sum", algorithm="doubling")
        b = compile_allreduce(8, 8, 1, 8, "sum", algorithm="doubling")
        with pytest.raises(FusionError):
            fuse_schedules((a, b))

    def test_mismatched_itemsize_rejected(self):
        a = compile_allreduce(4, 8, 1, 8, "sum", algorithm="doubling")
        b = compile_allreduce(4, 8, 1, 4, "sum", algorithm="doubling")
        with pytest.raises(FusionError):
            fuse_schedules((a, b))

    def test_mixed_ops_rejected(self):
        a = compile_allreduce(4, 8, 1, 8, "sum", algorithm="doubling")
        b = compile_allreduce(4, 8, 1, 8, "max", algorithm="doubling")
        with pytest.raises(FusionError):
            fuse_schedules((a, b))

    def test_op_survives_alongside_opless_schedules(self):
        bcast = compile_broadcast(4, 0, 8, 1, 8, algorithm="binomial")
        ar = compile_allreduce(4, 8, 1, 8, "max", algorithm="doubling")
        fused = fuse_schedules((bcast, ar))
        assert fused.op == "max"

    def test_pipeline_geometry_merges(self):
        """Two pipelined schedules with identical geometry merge
        round-for-round into one Pipeline block, and each still
        computes what it computes alone."""
        a = compile_allreduce(8, 64, 1, 8, "sum",
                              algorithm="dual-pipelined", segments=4)
        b = compile_allreduce(8, 64, 1, 8, "sum",
                              algorithm="dual-pipelined", segments=4)
        fused = fuse_schedules((a, b))
        assert lint_fused_schedule(fused) == []

        def n_pipes(sched):
            table = sched.table
            return sum(isinstance(entry, tuple) for entry in
                       table.skeletons[table.skeleton_of[0]].signature)

        assert n_pipes(fused) == n_pipes(a) == 1
        rng = np.random.default_rng(7)
        src = [rng.integers(-1000, 1000, size=(8, 64)) for _ in range(2)]
        together = evaluate_schedule(
            fused, inputs={"r0:src": src[0], "r1:src": src[1]})
        for i, sched in enumerate((a, b)):
            alone = evaluate_schedule(sched, inputs={"src": src[i]})
            for r in range(8):
                assert np.array_equal(together.buffer(f"r{i}:dest", r),
                                      alone.buffer("dest", r))

    def test_fused_pipeline_reads_as_its_rounds(self):
        """The text of a fused pipeline block, whose rows name no
        group, is the rounds it lowers to; ``describe`` still names the
        block."""
        a = compile_allreduce(8, 64, 1, 8, "sum",
                              algorithm="dual-pipelined", segments=4)
        fused = fuse_schedules((a, a))
        assert "Pipeline(" not in repr(fused)
        assert "pipe(" in a.describe()
        assert fused.describe().count("pipe(") == a.describe().count("pipe(")

    def test_mismatched_pipeline_geometry_runs_sequentially(self):
        """Different segment counts cannot merge positionally — fusion
        still succeeds, emitting the blocks back-to-back."""
        a = compile_allreduce(8, 64, 1, 8, "sum",
                              algorithm="dual-pipelined", segments=4)
        b = compile_allreduce(8, 64, 1, 8, "sum",
                              algorithm="dual-pipelined", segments=2)
        fused = fuse_schedules((a, b))
        assert lint_fused_schedule(fused) == []
