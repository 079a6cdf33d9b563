"""Tests for the OpenSHMEM-style API surface (paper section 4.7)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.shmem import ShmemAPI, active_set
from repro.errors import CollectiveArgumentError
from repro.runtime import Machine

from ..conftest import small_config


def run(n_pes, fn, **cfg_kw):
    machine = Machine(small_config(n_pes, **cfg_kw))
    return machine.run(fn)


class TestActiveSet:
    def test_expansion(self):
        assert active_set(0, 0, 4, 8) == (0, 1, 2, 3)
        assert active_set(1, 1, 3, 8) == (1, 3, 5)
        assert active_set(0, 2, 2, 8) == (0, 4)

    def test_bounds(self):
        with pytest.raises(CollectiveArgumentError):
            active_set(4, 1, 3, 8)  # 4,6,8 exceeds
        with pytest.raises(CollectiveArgumentError):
            active_set(0, 0, 0, 8)


class TestBroadcastSemantics:
    def test_root_dest_not_updated(self):
        """The paper's section 4.7 observation: OpenSHMEM broadcast does
        not copy into the root's dest; the xBGAS call does."""
        def body(ctx):
            ctx.init()
            sh = ShmemAPI(ctx)
            src = ctx.malloc(32)
            dest = ctx.malloc(32)
            ctx.view(dest, "long", 1)[0] = -9
            if ctx.my_pe() == 1:
                ctx.view(src, "long", 1)[0] = 7
            sh.broadcast64(dest, src, 1, 1)
            shmem_got = int(ctx.view(dest, "long", 1)[0])
            # Same operation through the xBGAS call updates everyone.
            ctx.long_broadcast(dest, src, 1, 1, 1)
            xbgas_got = int(ctx.view(dest, "long", 1)[0])
            ctx.close()
            return shmem_got, xbgas_got

        results = run(4, body)
        assert results[1][0] == -9      # root untouched by shmem call
        assert results[0][0] == 7       # others received
        assert all(x == 7 for _, x in results)  # xBGAS updates the root too

    def test_broadcast32(self):
        def body(ctx):
            ctx.init()
            sh = ShmemAPI(ctx)
            src = ctx.malloc(16)
            dest = ctx.malloc(16)
            if ctx.my_pe() == 0:
                ctx.view(src, "uint32", 3)[:] = [1, 2, 3]
            sh.broadcast32(dest, src, 3, 0)
            got = list(ctx.view(dest, "uint32", 3)) if ctx.my_pe() else None
            ctx.close()
            return got

        results = run(3, body)
        assert results[1] == [1, 2, 3]

    def test_active_set_broadcast(self):
        def body(ctx):
            ctx.init()
            sh = ShmemAPI(ctx)
            src = ctx.malloc(16)
            dest = ctx.malloc(16)
            ctx.view(dest, "long", 1)[0] = -1
            me = ctx.my_pe()
            if me % 2 == 0:  # active set = even PEs
                if me == 0:
                    ctx.view(src, "long", 1)[0] = 55
                sh.broadcast64(dest, src, 1, 0, pe_start=0,
                               log_pe_stride=1, pe_size=2)
            ctx.barrier()
            got = int(ctx.view(dest, "long", 1)[0])
            ctx.close()
            return got

        results = run(4, body)
        assert results[2] == 55
        assert results[1] == -1 and results[3] == -1

    @pytest.mark.parametrize("call", [
        lambda sh, dest, src: sh.broadcast64(dest, src, 1, 0, pe_size=0),
        lambda sh, dest, src: sh.long_sum_to_all(dest, src, 1, pe_size=0),
        lambda sh, dest, src: sh.fcollect64(dest, src, 1, pe_size=0),
        lambda sh, dest, src: sh.collect64(dest, src, 1, pe_size=0),
    ], ids=["broadcast64", "long_sum_to_all", "fcollect64", "collect64"])
    def test_empty_active_set_rejected(self, call):
        """``pe_size=0`` is an empty active set, not "every PE"; only an
        omitted ``pe_size`` means the whole machine."""
        def body(ctx):
            ctx.init()
            src = ctx.malloc(64)
            dest = ctx.malloc(64)
            try:
                call(ShmemAPI(ctx), dest, src)
                got = "accepted"
            except CollectiveArgumentError:
                got = "rejected"
            ctx.close()
            return got

        assert run(4, body) == ["rejected"] * 4


class TestToAllReductions:
    def test_sum_to_all_via_getattr(self):
        def body(ctx):
            ctx.init()
            sh = ShmemAPI(ctx)
            src = ctx.malloc(16)
            dest = ctx.malloc(16)
            ctx.view(src, "int", 1)[0] = ctx.my_pe() + 1
            sh.int_sum_to_all(dest, src, 1)
            got = int(ctx.view(dest, "int", 1)[0])
            ctx.close()
            return got

        results = run(4, body)
        assert all(r == 10 for r in results)

    def test_double_max_to_all(self):
        def body(ctx):
            ctx.init()
            sh = ShmemAPI(ctx)
            src = ctx.malloc(16)
            dest = ctx.malloc(16)
            ctx.view(src, "double", 1)[0] = float(ctx.my_pe())
            sh.double_max_to_all(dest, src, 1)
            got = float(ctx.view(dest, "double", 1)[0])
            ctx.close()
            return got

        assert all(r == 4.0 for r in run(5, body))

    def test_unknown_type_rejected(self):
        def body(ctx):
            ctx.init()
            sh = ShmemAPI(ctx)
            with pytest.raises(CollectiveArgumentError):
                sh.reduce_to_all("uint128", "sum", 0, 0, 1)
            with pytest.raises(AttributeError):
                sh.uint128_sum_to_all
            ctx.barrier()
            ctx.close()

        run(2, body)

    def test_stride_gap(self):
        """Section 4.7: OpenSHMEM reductions have no stride parameter —
        the API surface simply does not accept one."""
        import inspect

        sig = inspect.signature(ShmemAPI.reduce_to_all)
        assert "stride" not in sig.parameters

    def test_no_scatter_in_shmem(self):
        """Section 4.7: OpenSHMEM offers no scatter."""
        assert not hasattr(ShmemAPI, "scatter")
        assert not hasattr(ShmemAPI, "scatter64")


class TestCollect:
    def test_fcollect64(self):
        def body(ctx):
            ctx.init()
            n = ctx.num_pes()
            sh = ShmemAPI(ctx)
            src = ctx.malloc(8)
            dest = ctx.malloc(8 * n)
            ctx.view(src, "long", 1)[0] = ctx.my_pe() * 3
            sh.fcollect64(dest, src, 1)
            got = list(ctx.view(dest, "long", n))
            ctx.close()
            return got

        results = run(4, body)
        assert all(r == [0, 3, 6, 9] for r in results)

    def test_collect_variable(self):
        def body(ctx):
            ctx.init()
            n, me = ctx.num_pes(), ctx.my_pe()
            sh = ShmemAPI(ctx)
            cnt = me + 1
            total = sum(range(1, n + 1))
            src = ctx.malloc(8 * n)
            dest = ctx.malloc(8 * total)
            ctx.view(src, "long", cnt)[:] = me * 10 + np.arange(cnt)
            sh.collect64(dest, src, cnt)
            got = list(ctx.view(dest, "long", total))
            ctx.close()
            return got

        results = run(3, body)
        want = [0, 10, 11, 20, 21, 22]
        assert all(r == want for r in results)
