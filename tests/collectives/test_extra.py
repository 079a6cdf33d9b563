"""Tests for the extended collectives (paper section 7 future work)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import Machine

from ..conftest import small_config
from .helpers import run_machine


class TestReduceAll:
    @pytest.mark.parametrize("n_pes", [1, 2, 4, 7])
    def test_every_pe_gets_result(self, n_pes):
        def body(ctx):
            ctx.init()
            src = ctx.malloc(8 * 2)
            dest = ctx.malloc(8 * 2)
            ctx.view(src, "long", 2)[:] = [ctx.my_pe(), 1]
            ctx.allreduce(dest, src, 2, 1, "sum", "long")
            got = list(ctx.view(dest, "long", 2))
            ctx.close()
            return got

        results = run_machine(n_pes, body)
        want = [sum(range(n_pes)), n_pes]
        assert all(r == want for r in results)

    def test_max_to_all(self):
        def body(ctx):
            ctx.init()
            src = ctx.malloc(8)
            dest = ctx.malloc(8)
            ctx.view(src, "long", 1)[0] = (ctx.my_pe() * 13) % 7
            ctx.allreduce(dest, src, 1, 1, "max", "long")
            got = int(ctx.view(dest, "long", 1)[0])
            ctx.close()
            return got

        results = run_machine(5, body)
        want = max((pe * 13) % 7 for pe in range(5))
        assert all(r == want for r in results)


class TestAllgatherFcollect:
    def test_fcollect(self):
        def body(ctx):
            ctx.init()
            n = ctx.num_pes()
            src = ctx.malloc(8 * 2)
            dest = ctx.malloc(8 * 2 * n)
            ctx.view(src, "long", 2)[:] = [ctx.my_pe(), ctx.my_pe() * 10]
            from repro.baselines.shmem import ShmemAPI

            ShmemAPI(ctx).fcollect64(dest, src, 2)
            got = list(ctx.view(dest, "long", 2 * n))
            ctx.close()
            return got

        results = run_machine(4, body)
        want = []
        for pe in range(4):
            want += [pe, pe * 10]
        assert all(r == want for r in results)

    def test_variable_allgather(self):
        def body(ctx):
            ctx.init()
            n = ctx.num_pes()
            msgs = [i + 1 for i in range(n)]
            disp = [sum(msgs[:i]) for i in range(n)]
            total = sum(msgs)
            src = ctx.malloc(8 * n)
            dest = ctx.malloc(8 * total)
            me = ctx.my_pe()
            ctx.view(src, "long", msgs[me])[:] = me * 100 + np.arange(msgs[me])
            ctx.allgather(dest, src, msgs, disp, total, "long")
            got = list(ctx.view(dest, "long", total))
            ctx.close()
            return got

        results = run_machine(3, body)
        want = [0, 100, 101, 200, 201, 202]
        assert all(r == want for r in results)


class TestTreeAllgather:
    """The default allgather is one chained schedule (gather, then
    broadcast) — one call, whatever the block layout."""

    @staticmethod
    def _run(n_pes, msgs, disp):
        def body(ctx):
            ctx.init()
            me = ctx.my_pe()
            extent = max(d + m for d, m in zip(disp, msgs))
            src = ctx.malloc(8 * max(msgs))
            dest = ctx.malloc(8 * extent)
            ctx.view(dest, "long", extent)[:] = -1
            ctx.view(src, "long", msgs[me])[:] = 10 * me + np.arange(msgs[me])
            ctx.barrier()
            ctx.allgather(dest, src, msgs, disp, sum(msgs), "long",
                          algorithm="tree")
            got = [list(ctx.view(dest + 8 * d, "long", m))
                   for m, d in zip(msgs, disp)]
            ctx.close()
            return got

        machine = Machine(small_config(n_pes))
        return machine.run(body), machine

    def test_counted_once_as_allgather_tree(self):
        _, machine = self._run(3, [1, 2, 1], [0, 1, 3])
        assert dict(machine.stats.collective_calls) == {"allgather:tree": 1}

    def test_gapped_displacements_reach_every_pe(self):
        results, _ = self._run(3, [1, 2, 1], [5, 0, 3])
        want = [[0], [10, 11], [20]]
        assert all(got == want for got in results), results


class TestAllToAll:
    @pytest.mark.parametrize("n_pes", [1, 2, 4, 5, 8])
    def test_personalised_exchange(self, n_pes):
        """Block j of PE i lands as block i of PE j."""
        def body(ctx):
            ctx.init()
            n, me = ctx.num_pes(), ctx.my_pe()
            src = ctx.malloc(8 * n)
            dest = ctx.malloc(8 * n)
            ctx.view(dest, "long", n)[:] = -1
            ctx.view(src, "long", n)[:] = [me * 100 + j for j in range(n)]
            ctx.alltoall(dest, src, 1, "long")
            got = list(ctx.view(dest, "long", n))
            ctx.close()
            return got

        results = run_machine(n_pes, body)
        for j, got in enumerate(results):
            assert got == [i * 100 + j for i in range(n_pes)]

    def test_multi_element_blocks(self):
        def body(ctx):
            ctx.init()
            n, me = ctx.num_pes(), ctx.my_pe()
            blk = 3
            src = ctx.malloc(8 * n * blk)
            dest = ctx.malloc(8 * n * blk)
            sv = ctx.view(src, "long", n * blk)
            for j in range(n):
                sv[j * blk:(j + 1) * blk] = me * 1000 + j * 10 + np.arange(blk)
            ctx.alltoall(dest, src, blk, "long")
            got = np.array(ctx.view(dest, "long", n * blk), copy=True)
            ctx.close()
            return got

        results = run_machine(3, body)
        for j, got in enumerate(results):
            for i in range(3):
                want = i * 1000 + j * 10 + np.arange(3)
                assert np.array_equal(got[i * 3:(i + 1) * 3], want)

    def test_zero_block(self):
        def body(ctx):
            ctx.init()
            d = ctx.malloc(16)
            s = ctx.malloc(16)
            ctx.alltoall(d, s, 0, "long")
            ctx.close()

        run_machine(2, body)


class TestOverlappingBlocks:
    """Two non-empty blocks that share elements race in every algorithm
    that writes all blocks into one buffer (reduce-scatter would fold
    the shared elements more than once), so both collectives refuse
    such a layout, whichever algorithm runs."""

    COUNTS, DISPS = (2, 2, 2, 2), (0, 1, 4, 6)

    @pytest.mark.parametrize("collective,algorithm", [
        ("reduce_scatter", "ring"), ("reduce_scatter", "pat"),
        ("reduce_scatter", "auto"), ("allgather", "tree"),
        ("allgather", "dissemination"), ("allgather", "pat"),
        ("allgather", "auto"),
    ])
    def test_overlapping_blocks_are_refused(self, collective, algorithm):
        from repro.errors import CollectiveArgumentError

        def body(ctx):
            ctx.init()
            src = ctx.malloc(8 * 8)
            dest = ctx.malloc(8 * 8)
            ctx.view(src, "long", 8)[:] = np.arange(8) * (ctx.my_pe() + 1)
            call = getattr(ctx, collective)
            try:
                if collective == "reduce_scatter":
                    call(dest, src, self.COUNTS, self.DISPS, 8, "sum",
                         "long", algorithm=algorithm)
                else:
                    call(dest, src, self.COUNTS, self.DISPS, 8, "long",
                         algorithm=algorithm)
            except CollectiveArgumentError as exc:
                return "overlap" in str(exc)
            finally:
                ctx.close()
            return False

        assert run_machine(4, body) == [True] * 4

    def test_touching_blocks_are_not_overlapping(self):
        """Adjacent blocks and empty blocks anywhere stay legal."""
        def body(ctx):
            ctx.init()
            me = ctx.my_pe()
            src = ctx.malloc(8 * 6)
            dest = ctx.malloc(8 * 6)
            ctx.view(src, "long", 6)[:] = np.arange(6) * (me + 1)
            ctx.reduce_scatter(dest, src, (2, 0, 3, 1), (4, 1, 1, 0), 6,
                               "sum", "long", algorithm="pat")
            got = list(ctx.view(dest, "long", (2, 0, 3, 1)[me]))
            ctx.close()
            return got

        scale = sum(range(1, 5))
        assert run_machine(4, body) == [[4 * scale, 5 * scale], [],
                                        [scale, 2 * scale, 3 * scale], [0]]
