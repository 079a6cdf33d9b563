"""MPI-style collectives: the compiled schedules run two-sided.

Section 3.1's MPI baseline is not a second set of trees.  It is the
ordinary ``ctx.broadcast`` / ``reduce`` / ``allreduce`` / ``scatter`` /
``gather`` on ``Machine(config.with_transport("mpi"),
transport="mailbox")``: every compiled schedule is lowered to matched
sends and receives and priced with MPI's two-sided overheads.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import Machine

from ..conftest import small_config


def run(n_pes, fn):
    machine = Machine(small_config(n_pes).with_transport("mpi"),
                      transport="mailbox")
    results = machine.run(fn)
    # Two-sided all the way: more than one PE means messages moved.
    assert (machine.stats.sends > 0) == (n_pes > 1)
    return machine, results


class TestBcast:
    @pytest.mark.parametrize("n_pes", [1, 2, 3, 4, 7, 8])
    @pytest.mark.parametrize("root", [0, 1])
    def test_bcast(self, n_pes, root):
        if root >= n_pes:
            pytest.skip("root out of range")

        def body(ctx):
            ctx.init()
            src = ctx.private_malloc(8 * 4)
            dest = ctx.malloc(8 * 4)
            if ctx.my_pe() == root:
                ctx.view(src, "long", 4)[:] = [4, 3, 2, 1]
            ctx.broadcast(dest, src, 4, 1, root)
            got = list(ctx.view(dest, "long", 4))
            ctx.close()
            return got

        _, results = run(n_pes, body)
        assert all(r == [4, 3, 2, 1] for r in results)


class TestReduce:
    @pytest.mark.parametrize("n_pes", [1, 2, 5, 8])
    @pytest.mark.parametrize("op", ["sum", "max", "xor"])
    def test_reduce(self, n_pes, op):
        def body(ctx):
            ctx.init()
            src = ctx.malloc(8 * 2)
            dest = ctx.malloc(8 * 2)
            ctx.view(src, "long", 2)[:] = [ctx.my_pe() + 1, 3]
            ctx.reduce(dest, src, 2, 1, 0, op)
            got = (list(ctx.view(dest, "long", 2))
                   if ctx.my_pe() == 0 else None)
            ctx.close()
            return got

        _, results = run(n_pes, body)
        vals = [pe + 1 for pe in range(n_pes)]
        if op == "sum":
            want = [sum(vals), 3 * n_pes]
        elif op == "max":
            want = [max(vals), 3]
        else:
            x = 0
            for v in vals:
                x ^= v
            y = 0
            for _ in range(n_pes):
                y ^= 3
            want = [x, y]
        assert results[0] == want


class TestAllreduce:
    @pytest.mark.parametrize("n_pes", [1, 2, 3, 4, 5, 7, 8])
    def test_allreduce_sum(self, n_pes):
        """Recursive doubling including the non-power-of-two fold."""
        def body(ctx):
            ctx.init()
            src = ctx.malloc(8)
            dest = ctx.malloc(8)
            ctx.view(src, "long", 1)[0] = ctx.my_pe() + 1
            ctx.allreduce(dest, src, 1, 1, "sum")
            got = int(ctx.view(dest, "long", 1)[0])
            ctx.close()
            return got

        _, results = run(n_pes, body)
        want = sum(range(1, n_pes + 1))
        assert all(r == want for r in results)

    def test_allreduce_min(self):
        def body(ctx):
            ctx.init()
            src = ctx.malloc(8)
            dest = ctx.malloc(8)
            ctx.view(src, "long", 1)[0] = (ctx.my_pe() * 7) % 5
            ctx.allreduce(dest, src, 1, 1, "min")
            got = int(ctx.view(dest, "long", 1)[0])
            ctx.close()
            return got

        _, results = run(6, body)
        want = min((pe * 7) % 5 for pe in range(6))
        assert all(r == want for r in results)


class TestScattervGatherv:
    def test_scatterv(self):
        def body(ctx):
            ctx.init()
            n = ctx.num_pes()
            counts = [i + 1 for i in range(n)]
            displs = [sum(counts[:i]) for i in range(n)]
            src = ctx.malloc(8 * sum(counts))
            dest = ctx.private_malloc(8 * n)
            if ctx.my_pe() == 0:
                ctx.view(src, "long", sum(counts))[:] = np.arange(sum(counts))
            ctx.scatter(dest, src, counts, displs, sum(counts), 0)
            got = list(ctx.view(dest, "long", counts[ctx.my_pe()]))
            ctx.close()
            return got

        _, results = run(4, body)
        assert results == [[0], [1, 2], [3, 4, 5], [6, 7, 8, 9]]

    def test_gatherv(self):
        def body(ctx):
            ctx.init()
            n, me = ctx.num_pes(), ctx.my_pe()
            counts = [2] * n
            displs = [2 * i for i in range(n)]
            src = ctx.malloc(8 * 2)
            dest = ctx.private_malloc(8 * 2 * n)
            ctx.view(src, "long", 2)[:] = [me, me * 2]
            ctx.gather(dest, src, counts, displs, 2 * n, 1)
            got = (list(ctx.view(dest, "long", 2 * n))
                   if me == 1 else None)
            ctx.close()
            return got

        _, results = run(3, body)
        assert results[1] == [0, 0, 1, 2, 2, 4]


class TestCostComparison:
    def test_mpi_collective_slower_than_xbgas(self):
        """The paper's overhead thesis at the collective level: the same
        compiled broadcast costs more two-sided under MPI costs."""
        def body(ctx):
            ctx.init()
            buf = ctx.malloc(8 * 64)
            src = ctx.private_malloc(8 * 64)
            ctx.barrier()
            t0 = ctx.pe.clock
            ctx.broadcast(buf, src, 64, 1, 0)
            ctx.barrier()
            dt = ctx.pe.clock - t0
            ctx.close()
            return dt

        _, mpi_dt = run(8, body)
        xb = Machine(small_config(8))
        xb_dt = xb.run(body)
        assert max(mpi_dt) > max(xb_dt)
