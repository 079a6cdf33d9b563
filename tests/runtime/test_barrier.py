"""Tests for barrier synchronisation (world and team)."""

from __future__ import annotations

import pytest

from repro.errors import CollectiveArgumentError
from repro.runtime import Machine

from ..conftest import small_config


def run(n_pes, fn, **cfg_kw):
    machine = Machine(small_config(n_pes, **cfg_kw))
    return machine, machine.run(fn)


class TestWorldBarrier:
    def test_clocks_merge(self):
        def body(ctx):
            ctx.init()
            ctx.compute(100.0 * (ctx.my_pe() + 1))
            ctx.barrier()
            t = ctx.pe.clock
            ctx.close()
            return t

        _, results = run(4, body)
        assert len(set(results)) == 1  # all released at the same instant

    def test_release_no_earlier_than_latest_arrival(self):
        def body(ctx):
            ctx.init()
            ctx.compute(0.0 if ctx.my_pe() else 5000.0)
            ctx.barrier()
            t = ctx.pe.clock
            ctx.close()
            return t

        _, results = run(2, body)
        assert min(results) >= 5000.0

    def test_barrier_drains_pending_puts(self):
        """Quiescence: a put issued before the barrier is visible after."""
        def body(ctx):
            ctx.init()
            buf = ctx.malloc(64)
            ctx.view(buf, "long", 1)[0] = 0
            ctx.barrier()
            if ctx.my_pe() == 0:
                src = ctx.private_malloc(64)
                ctx.view(src, "long", 1)[0] = 77
                ctx.put(buf, src, 1, 1, 1, "long")
            ctx.barrier()
            got = int(ctx.view(buf, "long", 1)[0])
            ctx.close()
            return got

        _, results = run(2, body)
        assert results[1] == 77

    def test_barrier_cost_scales_logarithmically(self):
        def time_barrier(n):
            def body(ctx):
                ctx.init()
                ctx.barrier()
                t0 = ctx.pe.clock
                ctx.barrier()
                dt = ctx.pe.clock - t0
                ctx.close()
                return dt

            _, results = run(n, body)
            return results[0]

        t2, t8 = time_barrier(2), time_barrier(8)
        assert t8 > t2          # more rounds
        assert t8 < 10 * t2     # but only log-factor more

    def test_counts_in_stats(self):
        def body(ctx):
            ctx.init()
            ctx.barrier()
            ctx.barrier()
            ctx.close()

        m, _ = run(2, body)
        assert m.stats.barriers == 4  # init + 2 + close


class TestTeamBarrier:
    def test_disjoint_teams_independent(self):
        def body(ctx):
            ctx.init()
            me = ctx.my_pe()
            team = (0, 1) if me < 2 else (2, 3)
            ctx.compute(100.0 * me)
            ctx.barrier_team(team)
            t = ctx.pe.clock
            ctx.barrier()
            ctx.close()
            return t

        _, results = run(4, body)
        # Within each team clocks merged; across teams they differ.
        assert results[0] == results[1]
        assert results[2] == results[3]
        assert results[0] != results[2]

    def test_non_member_rejected(self):
        def body(ctx):
            ctx.init()
            if ctx.my_pe() == 3:
                with pytest.raises(CollectiveArgumentError):
                    ctx.barrier_team((0, 1))
            else:
                pass
            ctx.barrier()
            ctx.close()

        run(4, body)

    def test_single_member_team(self):
        def body(ctx):
            ctx.init()
            ctx.barrier_team((ctx.my_pe(),))
            ctx.close()

        run(2, body)


class TestMembersAndHalves:
    def test_members_are_normalised_once(self):
        machine = Machine(small_config(4))
        barriers = machine.barriers
        key = barriers.members((2, 0, 2, 1))
        assert key == (0, 1, 2)
        assert barriers.members((2, 0, 2, 1)) is key
        assert barriers.members(None) == (0, 1, 2, 3)

    def test_arrive_then_release_is_the_barrier(self):
        """The two halves, called for every PE from one thread, price an
        instance exactly as ``barrier()`` does from each PE's own."""
        def whole(ctx):
            ctx.init()
            ctx.compute(100.0 * ctx.my_pe())
            ctx.barrier()
            return ctx.pe.clock

        def halves(ctx):
            ctx.init()
            ctx.compute(100.0 * ctx.my_pe())
            barriers = ctx.machine.barriers
            engine = ctx.machine.engine
            engine.checkpoint()  # rank 3, the latest, runs last
            if ctx.my_pe() < 3:
                engine.suspend()
                return ctx.pe.clock
            key = barriers.members(None)
            for rank in range(4):
                inst, last = barriers.arrive(rank, key)
                assert last is (rank == 3)
            ctx.pe.advance_to(barriers.release(inst, waker=3))
            assert key not in barriers._pending
            return ctx.pe.clock

        m_whole, t_whole = run(4, whole)
        m_halves, t_halves = run(4, halves)
        assert t_halves == t_whole
        assert m_halves.stats.barriers == m_whole.stats.barriers
