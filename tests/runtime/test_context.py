"""Tests for the Machine / XBRTime runtime context."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import get_backend
from repro.errors import AllocationError, RuntimeStateError
from repro.runtime import Machine

from ..conftest import small_config


def run(n_pes, fn, **cfg_kw):
    machine = Machine(small_config(n_pes, **cfg_kw))
    return machine, machine.run(fn)


# The lifecycle guards live once, in the context core: every backend
# must raise the same exception type with the same message.  Bodies are
# module-level so the mp backend can pickle them.

BACKENDS = ["sim", "mp", "vec"]


def _guard_message(call):
    with pytest.raises(RuntimeStateError) as caught:
        call()
    return str(caught.value)


def _use_before_init(ctx):
    msg = _guard_message(ctx.my_pe)
    ctx.init()
    ctx.close()
    return msg


def _double_init(ctx):
    ctx.init()
    msg = _guard_message(ctx.init)
    ctx.close()
    return msg


def _init_after_close(ctx):
    ctx.init()
    ctx.close()
    return _guard_message(ctx.init)


def _guard_messages(backend, body):
    return get_backend(backend).run(body, config=small_config(2))


class TestLifecycle:
    def test_init_close(self):
        def body(ctx):
            ctx.init()
            assert ctx.num_pes() == 2
            ctx.close()

        run(2, body)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_use_before_init_rejected(self, backend):
        assert _guard_messages(backend, _use_before_init) == [
            f"PE {r}: runtime used outside init()/close()" for r in range(2)]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_double_init_rejected(self, backend):
        assert _guard_messages(backend, _double_init) == [
            f"PE {r}: init() called twice" for r in range(2)]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_init_after_close_rejected(self, backend):
        assert _guard_messages(backend, _init_after_close) == [
            f"PE {r}: init() after close()" for r in range(2)]

    def test_use_after_close_rejected(self):
        def body(ctx):
            ctx.init()
            ctx.close()
            with pytest.raises(RuntimeStateError):
                ctx.barrier()

        run(1, body)

    def test_my_pe_matches_rank(self):
        def body(ctx):
            ctx.init()
            me = ctx.my_pe()
            ctx.close()
            return me

        _, results = run(4, body)
        assert results == [0, 1, 2, 3]


class TestSymmetricMemory:
    def test_same_address_on_all_pes(self):
        """Figure 2: same offset of the shared segment everywhere."""
        def body(ctx):
            ctx.init()
            a = ctx.malloc(256)
            b = ctx.malloc(64)
            ctx.close()
            return (a, b)

        _, results = run(4, body)
        assert len(set(results)) == 1

    def test_malloc_is_in_shared_segment(self):
        def body(ctx):
            ctx.init()
            a = ctx.malloc(64)
            assert ctx.is_symmetric(a)
            p = ctx.private_malloc(64)
            assert not ctx.is_symmetric(p)
            ctx.close()

        run(2, body)

    def test_free_allows_reuse(self):
        def body(ctx):
            ctx.init()
            a = ctx.malloc(1024)
            ctx.free(a)
            b = ctx.malloc(1024)
            ctx.free(b)
            ctx.close()
            return (a, b)

        _, results = run(2, body)
        assert results[0] == results[1]

    def test_private_segments_independent(self):
        def body(ctx):
            ctx.init()
            p = ctx.private_malloc(128)
            v = ctx.view(p, "long", 1)
            v[0] = ctx.my_pe() * 11
            ctx.barrier()
            got = int(ctx.view_on(ctx.my_pe(), p, "long", 1)[0])
            ctx.private_free(p)
            ctx.close()
            return got

        _, results = run(3, body)
        assert results == [0, 11, 22]

    def test_view_aliases_simulated_memory(self):
        def body(ctx):
            ctx.init()
            a = ctx.malloc(64)
            ctx.view(a, "int32", 4)[:] = [1, 2, 3, 4]
            raw = ctx.machine.memories[ctx.rank].load(a, 4)
            ctx.close()
            return raw

        _, results = run(1, body)
        assert results == [1]

    def test_scratch_lifo(self):
        def body(ctx):
            ctx.init()
            s1 = ctx.scratch_alloc(64)
            s2 = ctx.scratch_alloc(64)
            with pytest.raises(AllocationError):
                ctx.scratch_free(s1)
            ctx.scratch_free(s2)
            ctx.scratch_free(s1)
            ctx.close()

        run(1, body)


class TestTimeCharging:
    def test_compute_advances_clock(self):
        def body(ctx):
            ctx.init()
            t0 = ctx.time_ns
            ctx.compute(123.0)
            dt = ctx.time_ns - t0
            ctx.close()
            return dt

        _, results = run(1, body)
        assert results[0] == pytest.approx(123.0)

    def test_dilation_applies_beyond_host_capacity(self):
        def body(ctx):
            ctx.init()
            t0 = ctx.time_ns
            ctx.compute(100.0)
            dt = ctx.time_ns - t0
            ctx.close()
            return dt

        # 8 PEs x 2.25 host cores / 12 = 1.5x dilation.
        m = Machine(small_config(8, host_cores=12, host_cores_per_pe=2.25))
        results = m.run(body)
        assert results[0] == pytest.approx(150.0)

    def test_charge_access_uses_hierarchy(self):
        def body(ctx):
            ctx.init()
            a = ctx.malloc(64)
            cold = ctx.charge_access(a, 8)
            warm = ctx.charge_access(a, 8)
            ctx.close()
            return cold > warm

        _, results = run(1, body)
        assert all(results)


class TestMachine:
    def test_stats_folded_after_run(self):
        def body(ctx):
            ctx.init()
            a = ctx.malloc(64)
            ctx.charge_access(a, 8)
            ctx.close()

        m, _ = run(2, body)
        st = m.stats
        assert st.l1_hits + st.l1_misses > 0
        assert st.barriers >= 2  # init + close

    def test_heap_layout_identical_across_pes(self):
        m = Machine(small_config(4))
        bases = {s.base for s in m.scratch_stacks}
        assert len(bases) == 1
        assert m.heap.base == m.heap_base + m.config.collective_scratch_bytes

    def test_elapsed_ns(self):
        def body(ctx):
            ctx.init()
            ctx.compute(10.0 * (ctx.my_pe() + 1))
            ctx.close()

        m, _ = run(4, body)
        assert m.elapsed_ns > 0


class TestTypedSurface:
    def test_all_typed_methods_exist(self):
        from repro.runtime.typed import TYPED_METHOD_NAMES
        from repro.runtime.context import XBRTime

        assert len(TYPED_METHOD_NAMES) > 200
        for name in TYPED_METHOD_NAMES:
            assert hasattr(XBRTime, name), name

    def test_paper_call_names_present(self):
        from repro.runtime.context import XBRTime

        # Spot-check the calls the paper writes out explicitly.
        for name in (
            "int_put", "int_get", "double_broadcast", "long_reduce_sum",
            "uint64_reduce_max", "float_reduce_min", "char_scatter",
            "ptrdiff_gather", "size_put_nb", "longdouble_get_nb",
            "ulonglong_reduce_prod", "int32_reduce_xor",
        ):
            assert hasattr(XBRTime, name), name

    def test_float_types_lack_bitwise_reductions(self):
        """Section 4.4: AND/OR/XOR only for non-floating-point types."""
        from repro.runtime.context import XBRTime

        for t in ("float", "double", "longdouble"):
            for op in ("and", "or", "xor"):
                assert not hasattr(XBRTime, f"{t}_reduce_{op}")
        for op in ("and", "or", "xor"):
            assert hasattr(XBRTime, f"uint_reduce_{op}")

    def test_typed_put_dispatches_dtype(self):
        def body(ctx):
            ctx.init()
            a = ctx.malloc(64)
            src = ctx.private_malloc(64)
            ctx.view(src, "int16", 4)[:] = [1, -2, 3, -4]
            ctx.int16_put(a, src, 4, 1, ctx.my_pe())
            got = list(ctx.view(a, "int16", 4))
            ctx.close()
            return got

        _, results = run(1, body)
        assert results[0] == [1, -2, 3, -4]


class TestOneShot:
    def test_machine_cannot_run_twice(self):
        from repro.errors import RuntimeStateError

        def body(ctx):
            ctx.init()
            ctx.close()

        m = Machine(small_config(2))
        m.run(body)
        with pytest.raises(RuntimeStateError, match="fresh"):
            m.run(body)
