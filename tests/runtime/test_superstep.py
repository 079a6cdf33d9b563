"""Superstep deferred-execution tests (runtime layer).

Byte-identity against eager execution is covered per backend in
``tests/backends/test_conformance.py``; this file covers the superstep
*mechanics* on the simulator — deferral and flush bookkeeping, transfer
coalescing, batching/widening decisions, stats accounting and the edge
cases (empty flush, zero-count collectives, nesting, body exceptions).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import RuntimeStateError
from repro.runtime import Machine

from ..conftest import small_config


def run(n_pes, fn, **cfg_kw):
    machine = Machine(small_config(n_pes, **cfg_kw))
    return machine.run(fn), machine


def _fill(ctx, addr, nelems, salt=0):
    ctx.view(addr, "long", nelems, 1)[:] = (
        np.arange(nelems, dtype=np.int64) * 3 + ctx.my_pe() * 7 + salt
    ) % 89


def _team_broadcast(ctx, dest, src):
    from repro.collectives.teams import Team

    Team(ctx, ctx.world_group).broadcast(dest, src, 4, 1, 99, "long")


#: One malformed call per collective front end on 2 PEs: a bad root, a
#: count list of the wrong length, a zero stride or a negative size.
_BAD_CALLS = {
    "broadcast": lambda ctx, d, s: ctx.broadcast(d, s, 4, 1, 99, "long"),
    "reduce": lambda ctx, d, s: ctx.reduce(d, s, 4, 1, 99, "sum", "long"),
    "scatter": lambda ctx, d, s: ctx.scatter(d, s, [4], [0], 4, 0, "long"),
    "gather": lambda ctx, d, s: ctx.gather(d, s, [4], [0], 4, 0, "long"),
    "allreduce": lambda ctx, d, s: ctx.allreduce(d, s, 4, 0, "sum", "long"),
    "reduce_scatter": lambda ctx, d, s: ctx.reduce_scatter(
        d, s, [4], [0], 4, "sum", "long"),
    "scan": lambda ctx, d, s: ctx.scan(d, s, 4, 0, "sum", "long"),
    "allgather": lambda ctx, d, s: ctx.allgather(d, s, [4], [0], 4, "long"),
    "alltoall": lambda ctx, d, s: ctx.alltoall(d, s, -1, "long"),
    "team.broadcast": _team_broadcast,
}


class TestDeferral:
    def test_collectives_defer_until_exit(self):
        def body(ctx):
            ctx.init()
            src = ctx.malloc(8 * 4)
            dest = ctx.malloc(8 * 4)
            _fill(ctx, src, 4)
            ctx.view(dest, "long", 4, 1)[:] = -1
            ctx.barrier()
            with ctx.superstep() as step:
                ctx.allreduce(dest, src, 4, 1, "sum", "long")
                assert step.pending == 1
                # nothing ran yet: dest untouched
                before = list(ctx.view(dest, "long", 4, 1))
            after = list(ctx.view(dest, "long", 4, 1))
            ctx.barrier()
            ctx.close()
            return before, after, step.flushes

        results, _ = run(4, body)
        for before, after, flushes in results:
            assert before == [-1] * 4
            assert after != before
            assert flushes == 1

    def test_transfers_defer_until_exit(self):
        def body(ctx):
            ctx.init()
            buf = ctx.malloc(8 * 4)
            src = ctx.private_malloc(8 * 4)
            ctx.view(buf, "long", 4, 1)[:] = -1
            ctx.view(src, "long", 4, 1)[:] = ctx.my_pe() * 10 + np.arange(4)
            ctx.barrier()
            right = (ctx.my_pe() + 1) % ctx.num_pes()
            with ctx.superstep() as step:
                ctx.put(buf, src, 4, 1, right, "long")
                deferred = step.pending == 1
            ctx.barrier()
            got = list(ctx.view(buf, "long", 4, 1))
            ctx.close()
            return deferred, got

        results, _ = run(4, body)
        for me, (deferred, got) in enumerate(results):
            assert deferred
            prev = (me - 1) % 4
            assert got == list(prev * 10 + np.arange(4))

    def test_empty_flush_is_noop(self):
        def body(ctx):
            ctx.init()
            with ctx.superstep() as step:
                pass
            ctx.close()
            return step.flushes, step.pending

        results, machine = run(2, body)
        assert all(r == (0, 0) for r in results)
        assert "superstep:flush" not in machine.stats.collective_calls

    def test_zero_count_collectives(self):
        """Zero-element requests defer, batch and flush correctly."""
        def body(ctx):
            ctx.init()
            src = ctx.malloc(16)
            dest = ctx.malloc(16)
            ctx.view(dest, "long", 2, 1)[:] = 7
            ctx.barrier()
            with ctx.superstep():
                ctx.allreduce(dest, src, 0, 1, "sum", "long")
                ctx.allreduce(dest, src, 0, 1, "sum", "long")
            ctx.barrier()
            got = list(ctx.view(dest, "long", 2, 1))
            ctx.close()
            return got

        results, machine = run(3, body)
        assert all(r == [7, 7] for r in results)
        assert machine.stats.collective_calls["allreduce:doubling"] == 2

    def test_nested_superstep_rejected(self):
        def body(ctx):
            ctx.init()
            try:
                with ctx.superstep():
                    with ctx.superstep():
                        pass
            except RuntimeStateError:
                caught = True
            else:
                caught = False
            # the outer step's unwinding must restore eager mode
            eager = ctx._superstep is None
            ctx.close()
            return caught, eager

        results, _ = run(2, body)
        assert all(r == (True, True) for r in results)

    def test_body_exception_discards_queue(self):
        def body(ctx):
            ctx.init()
            src = ctx.malloc(8 * 4)
            dest = ctx.malloc(8 * 4)
            _fill(ctx, src, 4)
            ctx.view(dest, "long", 4, 1)[:] = -1
            ctx.barrier()
            try:
                with ctx.superstep():
                    ctx.allreduce(dest, src, 4, 1, "sum", "long")
                    raise ValueError("abandon step")
            except ValueError:
                pass
            ctx.barrier()
            got = list(ctx.view(dest, "long", 4, 1))
            eager = ctx._superstep is None
            ctx.close()
            return got, eager

        results, machine = run(2, body)
        for got, eager in results:
            assert got == [-1] * 4  # the deferred allreduce never ran
            assert eager
        assert "allreduce:doubling" not in machine.stats.collective_calls

    def test_resilient_collectives_refuse_deferral(self):
        def body(ctx):
            ctx.init()
            src = ctx.malloc(8 * 4)
            dest = ctx.malloc(8 * 4)
            ctx.barrier()
            with ctx.superstep():
                with pytest.raises(RuntimeStateError):
                    ctx.resilient_allreduce(dest, src, 4, 1, "sum", "long")
            ctx.barrier()
            ctx.close()

        run(2, body)

    @pytest.mark.parametrize("call", sorted(_BAD_CALLS))
    def test_invalid_call_raises_at_call_site(self, call):
        """Validation happens at the deferred call, not at the flush."""
        from repro.errors import CollectiveArgumentError

        def body(ctx):
            ctx.init()
            src = ctx.malloc(8 * 4)
            dest = ctx.malloc(8 * 4)
            ctx.barrier()
            with ctx.superstep() as step:
                with pytest.raises(CollectiveArgumentError):
                    _BAD_CALLS[call](ctx, dest, src)
                assert step.pending == 0
            ctx.barrier()
            ctx.close()

        run(2, body)


class TestCoalescing:
    def test_contiguous_puts_merge(self):
        from repro.runtime.superstep import Superstep, _Transfer

        dt = np.dtype(np.int64)
        xfers = [
            _Transfer("put", 1000, 2000, 4, 1, 1, dt),
            _Transfer("put", 1032, 2032, 4, 1, 1, dt),   # contiguous
            _Transfer("put", 1100, 2100, 2, 1, 1, dt),   # gap
            _Transfer("put", 1000, 2000, 4, 1, 2, dt),   # other peer
            _Transfer("get", 1032, 2032, 4, 1, 1, dt),   # other kind
        ]
        merged = list(Superstep._coalesce(xfers))
        put_p1 = [t for t in merged if t.kind == "put" and t.pe == 1]
        assert [(t.dest, t.nelems) for t in put_p1] == [(1000, 8), (1100, 2)]
        assert len([t for t in merged if t.pe == 2]) == 1
        assert len([t for t in merged if t.kind == "get"]) == 1

    def test_dest_contiguous_src_gap_not_merged(self):
        from repro.runtime.superstep import Superstep, _Transfer

        dt = np.dtype(np.int64)
        xfers = [
            _Transfer("put", 1000, 2000, 4, 1, 1, dt),
            _Transfer("put", 1032, 2064, 4, 1, 1, dt),  # src jumps
        ]
        assert len(list(Superstep._coalesce(xfers))) == 2

    def test_strided_transfers_pass_through(self):
        from repro.runtime.superstep import Superstep, _Transfer

        dt = np.dtype(np.int64)
        xfers = [
            _Transfer("put", 1000, 2000, 4, 2, 1, dt),
            _Transfer("put", 1064, 2064, 4, 2, 1, dt),
        ]
        assert len(list(Superstep._coalesce(xfers))) == 2


class TestBatching:
    def test_same_shape_allreduces_widen(self):
        """K same-shape allreduces flush as one widened schedule: the
        per-request stats still count, but no fused-flush entry."""
        def body(ctx):
            ctx.init()
            srcs = [ctx.malloc(8 * 4) for _ in range(4)]
            dsts = [ctx.malloc(8 * 4) for _ in range(4)]
            for j, s in enumerate(srcs):
                _fill(ctx, s, 4, salt=j)
            ctx.barrier()
            with ctx.superstep():
                for s, d in zip(srcs, dsts):
                    ctx.allreduce(d, s, 4, 1, "sum", "long")
            ctx.barrier()
            out = [list(ctx.view(d, "long", 4, 1)) for d in dsts]
            ctx.close()
            return out

        results, machine = run(4, body)
        assert machine.stats.collective_calls["allreduce:doubling"] == 4
        assert "superstep:flush" not in machine.stats.collective_calls
        assert all(r == results[0] for r in results)

    def test_shmem_broadcasts_fuse_but_never_widen(self):
        """OpenSHMEM broadcasts leave the root's dest alone; two of them
        in one step fuse, but a widened schedule would copy out on the
        root too, so they must not widen."""
        from repro.baselines.shmem import ShmemAPI

        def body(ctx):
            ctx.init()
            srcs = [ctx.malloc(8 * 4) for _ in range(2)]
            dsts = [ctx.malloc(8 * 4) for _ in range(2)]
            for j, (s, d) in enumerate(zip(srcs, dsts)):
                _fill(ctx, s, 4, salt=j)
                ctx.view(d, "long", 4, 1)[:] = -1
            ctx.barrier()
            with ctx.superstep():
                for s, d in zip(srcs, dsts):
                    ShmemAPI(ctx).broadcast64(d, s, 4, 1)
            ctx.barrier()
            out = [list(ctx.view(d, "long", 4, 1)) for d in dsts]
            ctx.close()
            return out

        results, machine = run(4, body)
        assert machine.stats.collective_calls["superstep:flush"] == 1
        sent = [[(3 * i + 7 + j) % 89 for i in range(4)] for j in range(2)]
        assert results[1] == [[-1] * 4] * 2  # the root (PE 1)
        assert results[0] == results[2] == results[3] == sent

    def test_mixed_collectives_fuse(self):
        def body(ctx):
            ctx.init()
            srcs = [ctx.malloc(8 * 4) for _ in range(3)]
            dsts = [ctx.malloc(8 * 4) for _ in range(3)]
            for j, s in enumerate(srcs):
                _fill(ctx, s, 4, salt=j)
            ctx.barrier()
            with ctx.superstep():
                ctx.broadcast(dsts[0], srcs[0], 4, 1, 0, "long")
                ctx.reduce(dsts[1], srcs[1], 4, 1, 1, "sum", "long")
                ctx.allreduce(dsts[2], srcs[2], 4, 1, "sum", "long")
            ctx.barrier()
            ctx.close()

        _, machine = run(4, body)
        calls = machine.stats.collective_calls
        assert calls["superstep:flush"] == 1
        assert calls["broadcast:binomial"] == 1
        assert calls["reduce:sum:binomial"] == 1
        assert calls["allreduce:doubling"] == 1

    def test_composed_collectives_batch_by_their_barriers(self):
        """The tree allgather is one chained schedule: it joins the
        fused flush, booked as one ``allgather:tree``.  A hierarchical
        broadcast synchronises each node apart, so it flushes alone and
        splits the batch; every result matches the eager run."""
        def body(ctx, deferred):
            ctx.init()
            n = ctx.num_pes()
            bufs = [(ctx.malloc(8 * n), ctx.malloc(8 * n)) for _ in range(4)]
            for j, (_, src) in enumerate(bufs):
                _fill(ctx, src, n, salt=j)
            ctx.barrier()
            (d0, s0), (d1, s1), (d2, s2), (d3, s3) = bufs

            def calls():
                ctx.broadcast(d0, s0, n, 1, 1, "long")
                ctx.allgather(d1, s1, [1] * n, list(range(n)), n, "long",
                              algorithm="tree")
                ctx.broadcast(d2, s2, n, 1, 2, "long",
                              algorithm="hierarchical")
                ctx.reduce(d3, s3, n, 1, 0, "sum", "long")

            if deferred:
                with ctx.superstep():
                    calls()
            else:
                calls()
            ctx.barrier()
            out = [list(ctx.view(d, "long", n, 1)) for d, _ in bufs]
            ctx.close()
            return out

        eager, _ = run(4, lambda ctx: body(ctx, False), cores_per_node=2)
        fused, machine = run(4, lambda ctx: body(ctx, True),
                             cores_per_node=2)
        calls = machine.stats.collective_calls
        assert calls["superstep:flush"] == 1
        assert calls["allgather:tree"] == 1
        assert "gather:binomial" not in calls
        assert fused == eager

    def test_overlapping_buffers_split_batch(self):
        """A request whose buffers overlap an earlier one cannot join
        its batch — the flush falls back to two executions, preserving
        the eager read-after-write chain."""
        def body(ctx):
            ctx.init()
            src = ctx.malloc(8 * 4)
            mid = ctx.malloc(8 * 4)
            dest = ctx.malloc(8 * 4)
            _fill(ctx, src, 4)
            ctx.barrier()
            with ctx.superstep():
                ctx.allreduce(mid, src, 4, 1, "sum", "long")
                ctx.allreduce(dest, mid, 4, 1, "sum", "long")  # reads mid
            ctx.barrier()
            n = ctx.num_pes()
            want = [(v * n) * n for v in
                    ((np.arange(4, dtype=np.int64) * 3).tolist())]
            got = list(ctx.view(dest, "long", 4, 1))
            ctx.close()
            return got, want

        # my_pe()*7 terms: sum over PEs of (3i + 7me) = n*3i + 7*n(n-1)/2
        def eager(ctx):
            ctx.init()
            src = ctx.malloc(8 * 4)
            mid = ctx.malloc(8 * 4)
            dest = ctx.malloc(8 * 4)
            _fill(ctx, src, 4)
            ctx.barrier()
            ctx.allreduce(mid, src, 4, 1, "sum", "long")
            ctx.allreduce(dest, mid, 4, 1, "sum", "long")
            ctx.barrier()
            got = list(ctx.view(dest, "long", 4, 1))
            ctx.close()
            return got

        results, _ = run(4, body)
        expected, _ = run(4, eager)
        assert [r[0] for r in results] == expected

    def test_every_compiled_collective_fuses(self):
        """Six compiled collectives of six families, symmetric buffers,
        one step: one fused execution, each request's stats key booked
        once, the eager bytes, and less model time than eager."""
        k = 8

        def body(ctx, deferred):
            ctx.init()
            n = ctx.num_pes()
            msgs, disp = [k] * n, [i * k for i in range(n)]
            bufs = [(ctx.malloc(8 * k * n), ctx.malloc(8 * k * n))
                    for _ in range(6)]
            for j, (dest, src) in enumerate(bufs):
                _fill(ctx, src, k * n, salt=j)
            ctx.barrier()
            t0 = ctx.time_ns

            def calls():
                (d0, s0), (d1, s1), (d2, s2), (d3, s3), (d4, s4), \
                    (d5, s5) = bufs
                ctx.scan(d0, s0, k, 1, "sum", "long")
                ctx.alltoall(d1, s1, k, "long")
                ctx.scatter(d2, s2, msgs, disp, k * n, 1, "long")
                ctx.gather(d3, s3, msgs, disp, k * n, 2, "long")
                ctx.reduce_scatter(d4, s4, msgs, disp, k * n, "sum",
                                   "long")
                ctx.allgather(d5, s5, msgs, disp, k * n, "long",
                              algorithm="dissemination")

            if deferred:
                with ctx.superstep():
                    calls()
            else:
                calls()
            ctx.barrier()
            elapsed = ctx.time_ns - t0
            out = [bytes(ctx.view(d, "long", k * n, 1)) for d, _ in bufs]
            ctx.close()
            return out, elapsed

        eager, eager_m = run(8, lambda ctx: body(ctx, False))
        fused, fused_m = run(8, lambda ctx: body(ctx, True))
        calls = dict(fused_m.stats.collective_calls)
        assert calls.pop("superstep:flush") == 1
        assert calls == dict(eager_m.stats.collective_calls)
        assert sorted(calls.values()) == [1] * 6
        assert [out for out, _ in fused] == [out for out, _ in eager]
        assert max(t for _, t in fused) < max(t for _, t in eager)

    @pytest.mark.parametrize("collective", ["scan", "allreduce"])
    def test_merged_scratch_overflow_runs_calls_one_by_one(self,
                                                           collective):
        """Eight calls whose scratch fits one at a time but not all at
        once (fused scans, widened allreduces) run one by one, as eager
        would, instead of exhausting the collective scratch."""
        n = 8192

        def body(ctx, deferred):
            ctx.init()
            bufs = [(ctx.malloc(8 * n), ctx.malloc(8 * n))
                    for _ in range(8)]
            for j, (_, src) in enumerate(bufs):
                _fill(ctx, src, n, salt=j)
            ctx.barrier()
            call = getattr(ctx, collective)
            if deferred:
                with ctx.superstep():
                    for dest, src in bufs:
                        call(dest, src, n, 1, "sum", "long")
            else:
                for dest, src in bufs:
                    call(dest, src, n, 1, "sum", "long")
            ctx.barrier()
            out = [bytes(ctx.view(d, "long", n, 1)) for d, _ in bufs]
            ctx.close()
            return out

        eager, _ = run(2, lambda ctx: body(ctx, False))
        fused, machine = run(2, lambda ctx: body(ctx, True))
        assert fused == eager
        assert "superstep:flush" not in machine.stats.collective_calls

    def test_mid_step_barrier_flushes(self):
        def body(ctx):
            ctx.init()
            src = ctx.malloc(8 * 4)
            dest = ctx.malloc(8 * 4)
            _fill(ctx, src, 4)
            ctx.barrier()
            with ctx.superstep() as step:
                ctx.allreduce(dest, src, 4, 1, "sum", "long")
                ctx.barrier()  # flush point: results visible after
                visible = list(ctx.view(dest, "long", 4, 1))
                assert step.flushes == 1 and step.pending == 0
            ctx.close()
            return visible

        results, _ = run(2, body)
        assert all(r != [0, 0, 0, 0] for r in results)

    def test_opaque_collectives_preserve_order(self):
        """A scan between two allreduces joins their batch (any
        compiled collective does), and each call is still booked once."""
        def body(ctx):
            ctx.init()
            bufs = [ctx.malloc(8 * 4) for _ in range(6)]
            for j in (0, 2, 4):
                _fill(ctx, bufs[j], 4, salt=j)
            ctx.barrier()
            with ctx.superstep():
                ctx.allreduce(bufs[1], bufs[0], 4, 1, "sum", "long")
                ctx.scan(bufs[3], bufs[2], 4, 1, "sum", "long")
                ctx.allreduce(bufs[5], bufs[4], 4, 1, "sum", "long")
            ctx.barrier()
            ctx.close()

        _, machine = run(4, body)
        calls = machine.stats.collective_calls
        assert calls["allreduce:doubling"] == 2
        assert calls["scan:inclusive"] == 1


class TestDescribe:
    """`Schedule.describe()` snapshot: Pipeline blocks render."""

    def test_plain_stages(self):
        from repro.collectives.allreduce import compile_allreduce

        sched = compile_allreduce(8, 64, 1, 8, "sum")
        assert sched.describe() == (
            "allreduce:doubling n_pes=8 root=None op=sum "
            "stages=3 [1+1+1]"
        )

    def test_pipeline_blocks(self):
        from repro.collectives.allreduce import compile_allreduce

        sched = compile_allreduce(8, 64, 1, 8, "sum",
                                  algorithm="dual-pipelined", segments=4)
        assert sched.describe() == (
            "allreduce:dual-pipelined n_pes=8 root=None op=sum "
            "stages=9 [pipe(6x4->9)]"
        )

    def test_widened_and_fused(self):
        from repro.collectives.schedule.fuse import compile_widened

        sched = compile_widened("allreduce", "doubling", 4, 0, "sum", 8,
                                (8, 8))
        text = sched.describe()
        assert text.startswith("allreduce:doubling-widened n_pes=4 ")
