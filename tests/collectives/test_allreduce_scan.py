"""Tests for the one-sided allreduce and prefix scan (section 7)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import Machine

from ..conftest import small_config
from .helpers import run_machine


class TestAllreduce:
    @pytest.mark.parametrize("n_pes", [1, 2, 3, 4, 5, 7, 8])
    @pytest.mark.parametrize("op", ["sum", "max", "xor"])
    def test_every_pe_gets_result(self, n_pes, op):
        def body(ctx):
            ctx.init()
            src = ctx.malloc(8 * 3)
            dest = ctx.private_malloc(8 * 3)
            me = ctx.my_pe()
            ctx.view(src, "long", 3)[:] = [me + 1, me * 2, 5]
            ctx.allreduce(dest, src, 3, 1, op, "long")
            got = list(ctx.view(dest, "long", 3))
            ctx.close()
            return got

        results = run_machine(n_pes, body)
        cols = [[pe + 1 for pe in range(n_pes)],
                [pe * 2 for pe in range(n_pes)],
                [5] * n_pes]
        if op == "sum":
            want = [sum(c) for c in cols]
        elif op == "max":
            want = [max(c) for c in cols]
        else:
            want = []
            for c in cols:
                x = 0
                for v in c:
                    x ^= v
                want.append(x)
        assert all(r == want for r in results), (results, want)

    def test_agrees_with_reduce_all_composition(self):
        def body(ctx):
            ctx.init()
            src = ctx.malloc(8 * 4)
            a = ctx.malloc(8 * 4)
            b = ctx.private_malloc(8 * 4)
            me = ctx.my_pe()
            ctx.view(src, "long", 4)[:] = (me + 2) * np.arange(1, 5)
            ctx.reduce(a, src, 4, 1, 0, "sum", "long")
            ctx.broadcast(a, a, 4, 1, 0, "long")
            ctx.allreduce(b, src, 4, 1, "sum", "long")
            same = list(ctx.view(a, "long", 4)) == list(ctx.view(b, "long", 4))
            ctx.close()
            return same

        assert all(run_machine(6, body))

    def test_fewer_synchronisation_stages_than_composition(self):
        """Recursive doubling needs fewer barrier rounds than the
        reduce+broadcast composition at power-of-two PE counts (one
        tree depth instead of two)."""
        def barrier_count(which):
            def body(ctx):
                ctx.init()
                src = ctx.malloc(8 * 64)
                dest = ctx.malloc(8 * 64)
                if which == "composed":
                    ctx.reduce(dest, src, 64, 1, 0, "sum", "long")
                    ctx.broadcast(dest, dest, 64, 1, 0, "long")
                else:
                    ctx.allreduce(dest, src, 64, 1, "sum", "long")
                ctx.close()

            m = Machine(small_config(8, cores_per_node=1))
            m.run(body)
            return m.stats.barriers

        assert barrier_count("doubling") < barrier_count("composed")

    def test_strided(self):
        def body(ctx):
            ctx.init()
            src = ctx.malloc(8 * 8)
            dest = ctx.private_malloc(8 * 8)
            ctx.view(src, "long", 3, stride=2)[:] = ctx.my_pe() + 1
            ctx.allreduce(dest, src, 3, 2, "sum", "long")
            got = list(ctx.view(dest, "long", 3, stride=2))
            ctx.close()
            return got

        results = run_machine(4, body)
        assert all(r == [10, 10, 10] for r in results)

    @settings(max_examples=15, deadline=None)
    @given(n_pes=st.integers(1, 8), seed=st.integers(0, 9999))
    def test_oracle_property(self, n_pes, seed):
        rng = np.random.default_rng(seed)
        data = rng.integers(-50, 50, size=(n_pes, 4))

        def body(ctx, row):
            ctx.init()
            src = ctx.malloc(8 * 4)
            dest = ctx.private_malloc(8 * 4)
            ctx.view(src, "long", 4)[:] = row
            ctx.allreduce(dest, src, 4, 1, "sum", "long")
            got = list(ctx.view(dest, "long", 4))
            ctx.close()
            return got

        m = Machine(small_config(n_pes))
        results = m.run(body, [(data[r],) for r in range(n_pes)])
        want = list(data.sum(axis=0))
        assert all(r == want for r in results)


class TestScan:
    @pytest.mark.parametrize("n_pes", [1, 2, 3, 5, 8])
    def test_inclusive_matches_cumsum(self, n_pes):
        def body(ctx):
            ctx.init()
            src = ctx.malloc(8 * 2)
            dest = ctx.private_malloc(8 * 2)
            me = ctx.my_pe()
            ctx.view(src, "long", 2)[:] = [me + 1, 10 * (me + 1)]
            ctx.scan(dest, src, 2, 1, "sum", "long")
            got = list(ctx.view(dest, "long", 2))
            ctx.close()
            return got

        results = run_machine(n_pes, body)
        c1 = np.cumsum([pe + 1 for pe in range(n_pes)])
        c2 = np.cumsum([10 * (pe + 1) for pe in range(n_pes)])
        for pe, got in enumerate(results):
            assert got == [c1[pe], c2[pe]]

    @pytest.mark.parametrize("n_pes", [1, 2, 4, 6])
    def test_exclusive(self, n_pes):
        def body(ctx):
            ctx.init()
            src = ctx.malloc(8)
            dest = ctx.private_malloc(8)
            ctx.view(src, "long", 1)[0] = ctx.my_pe() + 1
            ctx.scan(dest, src, 1, 1, "sum", "long", inclusive=False)
            got = int(ctx.view(dest, "long", 1)[0])
            ctx.close()
            return got

        results = run_machine(n_pes, body)
        want = [sum(range(1, pe + 1)) for pe in range(n_pes)]
        assert results == want

    def test_max_scan(self):
        def body(ctx):
            ctx.init()
            src = ctx.malloc(8)
            dest = ctx.private_malloc(8)
            vals = [3, 1, 4, 1, 5, 9, 2, 6]
            ctx.view(src, "long", 1)[0] = vals[ctx.my_pe()]
            ctx.scan(dest, src, 1, 1, "max", "long")
            got = int(ctx.view(dest, "long", 1)[0])
            ctx.close()
            return got

        results = run_machine(8, body)
        assert results == [3, 3, 4, 4, 5, 9, 9, 9]

    def test_scan_use_case_offsets(self):
        """The classic use: exclusive sum scan of per-PE counts gives
        each PE its write offset into a shared array."""
        def body(ctx):
            ctx.init()
            me, n = ctx.my_pe(), ctx.num_pes()
            count = me + 1
            cnt = ctx.malloc(8)
            off = ctx.private_malloc(8)
            ctx.view(cnt, "long", 1)[0] = count
            ctx.scan(off, cnt, 1, 1, "sum", "long", inclusive=False)
            offset = int(ctx.view(off, "long", 1)[0])
            total = sum(range(1, n + 1))
            shared = ctx.malloc(8 * total)
            src = ctx.private_malloc(8 * count)
            ctx.view(src, "long", count)[:] = me
            ctx.barrier()
            ctx.put(shared + 8 * offset, src, count, 1, 0, "long")
            ctx.barrier()
            got = (list(ctx.view(shared, "long", total))
                   if me == 0 else None)
            ctx.close()
            return got

        results = run_machine(4, body)
        assert results[0] == [0, 1, 1, 2, 2, 2, 3, 3, 3, 3]


class TestRabenseifner:
    @pytest.mark.parametrize("n_pes", [1, 2, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("op", ["sum", "max"])
    def test_matches_doubling(self, n_pes, op):
        def body(ctx):
            ctx.init()
            src = ctx.malloc(8 * 13)
            a = ctx.private_malloc(8 * 13)
            b = ctx.private_malloc(8 * 13)
            me = ctx.my_pe()
            ctx.view(src, "long", 13)[:] = (me + 1) * np.arange(1, 14) % 37
            ctx.allreduce(a, src, 13, 1, op, "long", algorithm="doubling")
            ctx.allreduce(b, src, 13, 1, op, "long",
                          algorithm="rabenseifner")
            same = list(ctx.view(a, "long", 13)) == list(ctx.view(b, "long", 13))
            ctx.close()
            return same

        assert all(run_machine(n_pes, body))

    def test_strided(self):
        def body(ctx):
            ctx.init()
            src = ctx.malloc(8 * 24)
            dest = ctx.private_malloc(8 * 24)
            ctx.view(src, "long", 6, stride=3)[:] = ctx.my_pe() + 1
            ctx.allreduce(dest, src, 6, 3, "sum", "long",
                          algorithm="rabenseifner")
            got = list(ctx.view(dest, "long", 6, stride=3))
            ctx.close()
            return got

        results = run_machine(4, body)
        assert all(r == [10] * 6 for r in results)

    def test_fewer_elements_than_pes(self):
        """Segments can be empty when nelems < PEs — still correct."""
        def body(ctx):
            ctx.init()
            src = ctx.malloc(8 * 2)
            dest = ctx.private_malloc(8 * 2)
            ctx.view(src, "long", 2)[:] = [ctx.my_pe(), 1]
            ctx.allreduce(dest, src, 2, 1, "sum", "long",
                          algorithm="rabenseifner")
            got = list(ctx.view(dest, "long", 2))
            ctx.close()
            return got

        results = run_machine(8, body)
        assert all(r == [sum(range(8)), 8] for r in results)

    def test_moves_fewer_bytes_than_doubling_for_large_payloads(self):
        """Rabenseifner's point: O(2 nbytes) on the wire per PE instead
        of O(log N * nbytes)."""
        def bytes_moved(algorithm):
            def body(ctx):
                ctx.init()
                src = ctx.malloc(8 * 4096)
                dest = ctx.private_malloc(8 * 4096)
                ctx.allreduce(dest, src, 4096, 1, "sum", "long",
                              algorithm=algorithm)
                ctx.close()

            m = Machine(small_config(
                8,
                memory_bytes_per_pe=8 * 1024 * 1024,
                symmetric_heap_bytes=4 * 1024 * 1024,
                collective_scratch_bytes=1024 * 1024,
            ))
            m.run(body)
            return m.stats.bytes_got

        # Theory at N=8: 2*(N-1)/N / log2(N) = (2*7/8)/3 = 0.583.
        ratio = bytes_moved("rabenseifner") / bytes_moved("doubling")
        assert ratio == pytest.approx(0.583, abs=0.02)

    def test_unknown_algorithm(self):
        from repro.errors import SimulationError

        def body(ctx):
            ctx.init()
            src = ctx.malloc(8)
            ctx.allreduce(src, src, 1, 1, "sum", "long", algorithm="magic")
            ctx.close()

        with pytest.raises(SimulationError):
            run_machine(2, body)
