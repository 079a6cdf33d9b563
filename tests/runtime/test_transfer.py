"""Tests for one-sided get/put (blocking, non-blocking, strided)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AddressError, CollectiveArgumentError
from repro.runtime import Machine
from repro.types import TYPENAMES, typeinfo

from ..conftest import small_config


def run(n_pes, fn, **cfg_kw):
    machine = Machine(small_config(n_pes, **cfg_kw))
    return machine.run(fn)


class TestPut:
    def test_remote_put_lands(self):
        def body(ctx):
            ctx.init()
            buf = ctx.malloc(8 * 4)
            v = ctx.view(buf, "long", 4)
            v[:] = -1
            src = ctx.private_malloc(8 * 4)
            ctx.view(src, "long", 4)[:] = ctx.my_pe() * 10 + np.arange(4)
            ctx.put(buf, src, 4, 1, (ctx.my_pe() + 1) % ctx.num_pes(), "long")
            ctx.barrier()
            got = list(v)
            ctx.close()
            return got

        results = run(4, body)
        for me, got in enumerate(results):
            prev = (me - 1) % 4
            assert got == list(prev * 10 + np.arange(4))

    def test_local_put_is_copy(self):
        def body(ctx):
            ctx.init()
            a = ctx.malloc(64)
            b = ctx.malloc(64)
            ctx.view(a, "int", 4)[:] = [9, 8, 7, 6]
            ctx.put(b, a, 4, 1, ctx.my_pe(), "int")
            got = list(ctx.view(b, "int", 4))
            ctx.close()
            return got

        assert run(1, body)[0] == [9, 8, 7, 6]

    def test_strided_put(self):
        """Paper: stride applies at both src and dest."""
        def body(ctx):
            ctx.init()
            buf = ctx.malloc(8 * 16)
            ctx.view(buf, "long", 16)[:] = 0
            src = ctx.private_malloc(8 * 16)
            sv = ctx.view(src, "long", 5, stride=3)
            sv[:] = [1, 2, 3, 4, 5]
            ctx.put(buf, src, 5, 3, (ctx.my_pe() + 1) % 2, "long")
            ctx.barrier()
            got = list(ctx.view(buf, "long", 16))
            ctx.close()
            return got

        got = run(2, body)[0]
        assert got[0::3][:5] == [1, 2, 3, 4, 5]
        assert got[1] == 0 and got[2] == 0  # gaps untouched

    def test_zero_elements_noop(self):
        def body(ctx):
            ctx.init()
            a = ctx.malloc(64)
            ctx.put(a, a, 0, 1, 0, "long")
            ctx.get(a, a, 0, 1, 0, "long")
            ctx.close()

        run(2, body)

    def test_bad_args_rejected(self):
        def body(ctx):
            ctx.init()
            a = ctx.malloc(64)
            with pytest.raises(CollectiveArgumentError):
                ctx.put(a, a, -1, 1, 0, "long")
            with pytest.raises(CollectiveArgumentError):
                ctx.put(a, a, 1, 0, 0, "long")
            with pytest.raises(CollectiveArgumentError):
                ctx.put(a, a, 1, 1, 99, "long")
            with pytest.raises(AddressError):
                ctx.put(2 ** 40, a, 1, 1, 0, "long")
            ctx.close()

        run(2, body)

    @pytest.mark.parametrize("op", ["put", "get", "put_nb", "get_nb", "amo"])
    def test_rejected_transfer_is_not_counted(self, op):
        """An out-of-range address raises before anything is counted or
        charged; a zero-element call still counts as a call."""
        def body(ctx):
            ctx.init()
            a = ctx.malloc(64)
            ctx.barrier()
            st = ctx.machine.stats
            if ctx.my_pe() == 0:
                counted = lambda: (st.puts, st.gets, st.amos, st.bytes_put,
                                   st.bytes_got, ctx.pe.clock)
                before = counted()
                with pytest.raises(AddressError, match="outside memory"):
                    if op == "amo":
                        ctx.amo(1 << 40, 1, 1, "add")
                    else:
                        getattr(ctx, op)(1 << 40, a, 1, 1, 1, "uint64")
                assert counted() == before
                if op != "amo":
                    getattr(ctx, op)(1 << 40, a, 0, 1, 1, "uint64")
                    assert st.puts + st.gets == before[0] + before[1] + 1
            ctx.barrier()
            ctx.close()

        run(2, body)

    def test_remote_put_sender_returns_before_delivery(self):
        """One-sided puts are fire-and-forget: the sender is freed as
        soon as the message is injected, well before remote delivery."""
        def body(ctx):
            ctx.init()
            a = ctx.malloc(4096)
            src = ctx.private_malloc(4096)
            ctx.barrier()
            t0 = ctx.pe.clock
            ctx.put(a, src, 64, 1, (ctx.my_pe() + 1) % 2, "long")
            sender_dt = ctx.pe.clock - t0
            delivery = ctx.machine.network.quiescence_time() - t0
            ctx.barrier()
            ctx.close()
            return sender_dt, delivery

        # One PE per node so the remote path crosses the network.
        sender_dt, delivery = run(2, body, cores_per_node=1)[0]
        assert sender_dt < delivery
        assert delivery > 450  # at least the wire latency


class TestGet:
    def test_remote_get(self):
        def body(ctx):
            ctx.init()
            buf = ctx.malloc(8 * 4)
            ctx.view(buf, "long", 4)[:] = ctx.my_pe() * 100 + np.arange(4)
            ctx.barrier()
            dst = ctx.private_malloc(8 * 4)
            target = (ctx.my_pe() + 1) % ctx.num_pes()
            ctx.get(dst, buf, 4, 1, target, "long")
            got = list(ctx.view(dst, "long", 4))
            ctx.close()
            return got

        results = run(3, body)
        for me, got in enumerate(results):
            t = (me + 1) % 3
            assert got == list(t * 100 + np.arange(4))

    def test_get_blocks_for_round_trip(self):
        def body(ctx):
            ctx.init()
            buf = ctx.malloc(64)
            ctx.barrier()
            t0 = ctx.time_ns
            dst = ctx.private_malloc(64)
            ctx.get(dst, buf, 1, 1, (ctx.my_pe() + 1) % 2, "long")
            dt = ctx.time_ns - t0
            ctx.barrier()
            ctx.close()
            return dt

        dt = run(2, body, cores_per_node=1)[0]
        # Must include at least one wire round trip.
        assert dt >= 2 * 450


class TestNonBlocking:
    def test_put_nb_then_wait(self):
        def body(ctx):
            ctx.init()
            buf = ctx.malloc(64)
            ctx.view(buf, "long", 1)[0] = -1
            src = ctx.private_malloc(64)
            ctx.view(src, "long", 1)[0] = 42
            h = ctx.put_nb(buf, src, 1, 1, (ctx.my_pe() + 1) % 2, "long")
            ctx.wait(h)
            assert h.done
            ctx.barrier()
            got = int(ctx.view(buf, "long", 1)[0])
            ctx.close()
            return got

        assert run(2, body) == [42, 42]

    def test_get_nb_then_wait(self):
        def body(ctx):
            ctx.init()
            buf = ctx.malloc(64)
            ctx.view(buf, "long", 1)[0] = ctx.my_pe() + 7
            ctx.barrier()
            dst = ctx.private_malloc(64)
            h = ctx.get_nb(dst, buf, 1, 1, (ctx.my_pe() + 1) % 2, "long")
            ctx.wait(h)
            got = int(ctx.view(dst, "long", 1)[0])
            ctx.close()
            return got

        assert run(2, body) == [8, 7]

    def test_quiet_completes_all(self):
        def body(ctx):
            ctx.init()
            buf = ctx.malloc(8 * 8)
            src = ctx.private_malloc(8 * 8)
            handles = [
                ctx.put_nb(buf + 8 * i, src + 8 * i, 1, 1,
                           (ctx.my_pe() + 1) % 2, "long")
                for i in range(8)
            ]
            ctx.quiet()
            assert all(h.done for h in handles)
            ctx.barrier()
            ctx.close()

        run(2, body)

    def test_nb_initiation_cheaper_than_blocking_get(self):
        def body(ctx):
            ctx.init()
            buf = ctx.malloc(8 * 512)
            ctx.barrier()
            dst = ctx.private_malloc(8 * 512)
            other = (ctx.my_pe() + 1) % 2
            t0 = ctx.time_ns
            ctx.get(dst, buf, 512, 1, other, "long")
            blocking = ctx.time_ns - t0
            t0 = ctx.time_ns
            h = ctx.get_nb(dst, buf, 512, 1, other, "long")
            initiation = ctx.time_ns - t0
            ctx.wait(h)
            ctx.barrier()
            ctx.close()
            return blocking, initiation

        blocking, initiation = run(2, body, cores_per_node=1)[0]
        assert initiation < blocking


class TestUnrolling:
    def test_loop_overhead_drops_above_threshold(self):
        """Section 3.3: the generated loop unrolls past the threshold."""
        from repro.runtime.transfer import loop_overhead_ns

        cfg = small_config(1, unroll_threshold=8, unroll_factor=4)
        below = loop_overhead_ns(cfg, 8) / 8
        above = loop_overhead_ns(cfg, 800) / 800
        assert above < below


class TestAllTypes:
    @pytest.mark.parametrize("typename", TYPENAMES)
    def test_put_roundtrip_every_table1_type(self, typename):
        info = typeinfo(typename)

        def body(ctx):
            ctx.init()
            eb = info.nbytes
            buf = ctx.malloc(eb * 4, align=16)
            src = ctx.private_malloc(eb * 4, align=16)
            sv = ctx.view(src, info.dtype, 4)
            sv[:] = np.array([0, 1, 2, 3], dtype=info.dtype)
            getattr(ctx, f"{typename}_put")(buf, src, 4, 1,
                                            (ctx.my_pe() + 1) % 2)
            ctx.barrier()
            got = ctx.view(buf, info.dtype, 4)
            ok = bool(np.all(got == sv))
            ctx.close()
            return ok

        machine = Machine(small_config(2))
        assert all(machine.run(body))


class TestPropertyBased:
    @settings(max_examples=25, deadline=None)
    @given(
        nelems=st.integers(1, 32),
        stride=st.integers(1, 4),
        seed=st.integers(0, 2 ** 31),
    )
    def test_put_get_inverse(self, nelems, stride, seed):
        """get(put(x)) == x for random shapes."""
        rng = np.random.default_rng(seed)
        data = rng.integers(-(2 ** 62), 2 ** 62, size=nelems)

        def body(ctx):
            ctx.init()
            span = 8 * ((nelems - 1) * stride + 1)
            buf = ctx.malloc(span)
            src = ctx.private_malloc(span)
            back = ctx.private_malloc(span)
            if ctx.my_pe() == 0:
                ctx.view(src, "long", nelems, stride)[:] = data
                ctx.put(buf, src, nelems, stride, 1, "long")
            ctx.barrier()
            ok = True
            if ctx.my_pe() == 0:
                ctx.get(back, buf, nelems, stride, 1, "long")
                ok = bool(np.all(
                    ctx.view(back, "long", nelems, stride) == data))
            ctx.close()
            return ok

        machine = Machine(small_config(2))
        assert all(machine.run(body))


class TestPendingBookkeeping:
    """wait/quiet must stay O(1) per handle: the pending registry is
    keyed by id and never compares or scans handles."""

    def test_wait_and_quiet_never_compare_handles(self, monkeypatch):
        from repro.runtime.transfer import TransferHandle

        def bomb(self, other):
            raise AssertionError(
                "pending bookkeeping compared handles (O(n) scan?)"
            )

        monkeypatch.setattr(TransferHandle, "__eq__", bomb)

        def body(ctx):
            ctx.init()
            n = 64
            buf = ctx.malloc(8 * n)
            src = ctx.private_malloc(8 * n)
            handles = [
                ctx.put_nb(buf + 8 * i, src + 8 * i, 1, 1,
                           (ctx.my_pe() + 1) % 2, "long")
                for i in range(n)
            ]
            ctx.wait(handles[0])
            ctx.wait(handles[0])  # double-wait is a no-op, not an error
            ctx.quiet()
            assert all(h.done for h in handles)
            ctx.barrier()
            ctx.close()

        run(2, body)

    def test_registry_empties_and_reuses_no_stale_ids(self):
        seen = {}

        def body(ctx):
            ctx.init()
            buf = ctx.malloc(8 * 8)
            src = ctx.private_malloc(8 * 8)
            eng = ctx._transfer
            for round_ in range(20):
                handles = [
                    ctx.put_nb(buf + 8 * i, src + 8 * i, 1, 1,
                               (ctx.my_pe() + 1) % 2, "long")
                    for i in range(8)
                ]
                assert len(eng._pending) == 8
                for h in handles:
                    ctx.wait(h)
                assert not eng._pending
            seen[ctx.my_pe()] = True
            ctx.barrier()
            ctx.close()

        run(2, body)
        assert seen == {0: True, 1: True}


class TestWordMoves:
    """Aligned runs move as strided slices of the memories' word views;
    whatever the overlap, the bytes must be numpy view assignment's."""

    @staticmethod
    def _expected(before: np.ndarray, dest: int, src: int, nelems: int,
                  stride: int, dtype: np.dtype) -> np.ndarray:
        out = before.copy()
        span = ((nelems - 1) * stride + 1) * dtype.itemsize
        dst = out[dest:dest + span].view(dtype)[::stride]
        dst[:] = before[src:src + span].view(dtype)[::stride]
        return out

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 4),
           st.integers(-20, 20), st.sampled_from(["long", "int", "short"]),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_local_put_matches_numpy(self, nelems, stride, shift, typename,
                                     misaligned, seed):
        """A charged local copy whose destination starts ``shift``
        elements before or after its source: inside the source span in
        both directions, or clear of it; ``misaligned`` moves both ends
        off the element grid (the numpy fallback)."""
        dtype = typeinfo(typename).dtype
        eb = dtype.itemsize

        def body(ctx):
            ctx.init()
            buf = ctx.malloc(1024)
            mem = ctx._memory
            rng = np.random.default_rng(seed)
            mem.buf[buf:buf + 1024] = rng.integers(0, 256, 1024,
                                                   dtype=np.uint8)
            src = buf + 256 + misaligned
            dest = src + shift * eb
            before = mem.buf.copy()
            ctx.put(dest, src, nelems, stride, ctx.my_pe(), dtype)
            want = self._expected(before, dest, src, nelems, stride, dtype)
            same = np.array_equal(mem.buf, want)
            ctx.close()
            return same

        assert all(run(1, body))


# -- the one-word path against the general path -------------------------------

_LINE, _PAGE, _BUF = 64, 4096, 8192
_WIDTHS = {"long": 8, "int": 4, "short": 2, "char": 1, "longdouble": 16}


@st.composite
def _word_op(draw, n_pes: int):
    """One single-element get or put, biased towards the word path: an
    aligned ``long`` at stride 1 to another PE."""
    issuer = draw(st.integers(0, n_pes - 1))
    word = draw(st.booleans())
    typename = "long" if word else draw(st.sampled_from(sorted(_WIDTHS)))
    width = _WIDTHS[typename]

    def offset():
        mode = draw(st.sampled_from(
            ("aligned", "line-end", "any", "straddle-line", "straddle-page")
            if not word else ("aligned", "line-end")))
        if mode == "aligned":
            return draw(st.integers(0, _BUF // width - 1)) * width
        if mode == "line-end":
            return _LINE * draw(st.integers(1, _BUF // _LINE)) - width
        if mode == "any":
            return draw(st.integers(0, _BUF - width))
        if mode == "straddle-line":
            return (_LINE * draw(st.integers(1, _BUF // _LINE - 1))
                    - draw(st.integers(1, max(width - 1, 1))))
        return _PAGE - draw(st.integers(1, max(width - 1, 1)))

    return (
        issuer,
        draw(st.sampled_from(("get", "put"))),
        typename,
        1 if word else draw(st.sampled_from((1, 2, 7, 9, 40))),
        draw(st.integers(0, n_pes - 1).filter(lambda t: t != issuer))
        if word else draw(st.integers(0, n_pes - 1)),
        (draw(st.integers(0, 1)), offset()),
        (draw(st.integers(0, 1)), offset()),
        draw(st.sampled_from((0.0, 3.0, 40.0, 900.0))),
    )


@st.composite
def _word_programs(draw):
    n_pes = draw(st.integers(2, 8))
    cores = draw(st.sampled_from((1, 2, 4, 8)))
    ops = draw(st.lists(_word_op(n_pes), min_size=1, max_size=40))
    return n_pes, cores, ops


def _word_program_pe(ctx, ops):
    ctx.init()
    me = ctx.my_pe()
    bufs = (ctx.malloc(_BUF, _PAGE), ctx.private_malloc(_BUF, _PAGE))
    rng = np.random.default_rng(me)
    for base in bufs:
        ctx.view(base, "uint8", _BUF)[:] = rng.integers(0, 256, _BUF,
                                                        dtype=np.uint8)
    ctx.barrier()
    for issuer, kind, typename, stride, target, dest, src, ns in ops:
        if issuer != me:
            continue
        ctx.compute(ns)
        (ctx.get if kind == "get" else ctx.put)(
            bufs[dest[0]] + dest[1], bufs[src[0]] + src[1], 1, stride,
            target, typename)
    ctx.barrier()
    ctx.close()


def _machine_state(machine: Machine) -> dict:
    import dataclasses

    net = machine.network
    hiers = [machine.hierarchy_of(r) for r in range(machine.config.n_pes)]
    return {
        "clocks": [pe.clock for pe in machine.engine.pes],
        "stats": dataclasses.asdict(machine.stats),
        "caches": [(h.stat_tuple(), h.l1.writebacks, h.l2.writebacks,
                    h.l1.lru_state(), h.l2.lru_state()) for h in hiers],
        "tlbs": [(list(h.tlb._entries), h.tlb.mru) for h in hiers],
        "network": (list(net._bus_free), list(net._link_free),
                    list(net._fabric_free), net.max_delivery,
                    net.stats.fabric_queued_ns),
        "bytes": [bytes(m.buf) for m in machine.memories],
    }


class TestWordPath:
    """A remote get or put of one aligned 8-byte element at stride 1 is
    priced line by line in one frame on a clean direct-handoff machine;
    every other single element takes the general path.  Whatever mix of
    the two a program makes, the machine must end exactly where
    ``Machine(fast_paths=False)`` — the general path throughout — ends."""

    @settings(max_examples=60, deadline=None)
    @given(_word_programs())
    def test_word_path_matches_the_general_path(self, program):
        n_pes, cores, ops = program
        cfg = small_config(n_pes, cores_per_node=cores,
                           memory_bytes_per_pe=256 * 1024,
                           symmetric_heap_bytes=128 * 1024,
                           collective_scratch_bytes=32 * 1024)
        states = []
        for fast in (True, False):
            machine = Machine(cfg, fast_paths=fast)
            machine.run(_word_program_pe, [(ops,)] * n_pes)
            states.append(_machine_state(machine))
        word, general = states
        for what in word:
            assert word[what] == general[what], what

    def test_only_a_plain_direct_machine_takes_it(self):
        from repro.backends.vec import VecWorld
        from repro.faults import FaultPlan

        cfg = small_config(2)

        def word_path(machine):
            return machine.transfers[0]._word_path

        assert word_path(Machine(cfg))
        assert word_path(Machine(cfg, trace=True))  # tested per call
        assert not word_path(Machine(cfg, fast_paths=False))
        assert not word_path(Machine(cfg, faults=FaultPlan(seed=1)))
        assert not word_path(Machine(small_config(2, fidelity="isa")))
        assert not word_path(VecWorld(cfg))
