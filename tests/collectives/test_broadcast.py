"""Tests for Algorithm 1: binomial-tree broadcast with recursive halving."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CollectiveArgumentError
from repro.runtime import Machine

from ..conftest import small_config
from .helpers import run_broadcast, run_machine


class TestCorrectness:
    @pytest.mark.parametrize("n_pes", [1, 2, 3, 4, 7, 8])
    def test_all_pes_receive(self, n_pes):
        data = np.arange(6, dtype=np.int64) * 3 + 1
        results = run_broadcast(n_pes, 6, 1, 0, np.dtype(np.int64), data)
        for got in results:
            assert np.array_equal(got, data)

    @pytest.mark.parametrize("root", [0, 1, 3, 4, 6])
    def test_nonzero_roots(self, root):
        """The virtual-rank remapping handles any root (Table 2 case)."""
        data = np.array([root * 7, -root], dtype=np.int64)
        results = run_broadcast(7, 2, 1, root, np.dtype(np.int64), data)
        for got in results:
            assert np.array_equal(got, data)

    @pytest.mark.parametrize("stride", [1, 2, 5])
    def test_strides(self, stride):
        """Unlike OpenSHMEM, broadcast supports non-default strides
        (paper section 4.7)."""
        data = np.array([11, 22, 33, 44], dtype=np.int32)
        results = run_broadcast(4, 4, stride, 1, np.dtype(np.int32), data)
        for got in results:
            assert np.array_equal(got, data)

    @pytest.mark.parametrize("typename", ["char", "ushort", "double",
                                          "uint64", "longdouble"])
    def test_types(self, typename):
        from repro.types import dtype_of

        dt = dtype_of(typename)
        data = np.array([1, 2, 3], dtype=dt)
        results = run_broadcast(4, 3, 1, 2, dt, data)
        for got in results:
            assert np.array_equal(got, data)

    def test_single_pe(self):
        data = np.array([5], dtype=np.int64)
        results = run_broadcast(1, 1, 1, 0, np.dtype(np.int64), data)
        assert np.array_equal(results[0], data)

    def test_zero_elements(self):
        results = run_broadcast(4, 0, 1, 0, np.dtype(np.int64),
                                np.empty(0, dtype=np.int64))
        for got in results:
            assert got.size == 0

    def test_prior_dest_writes_not_clobbered_race(self):
        """The entry barrier orders each PE's own writes to dest before
        the root's puts (the pSync role)."""
        def body(ctx):
            ctx.init()
            dest = ctx.malloc(64)
            v = ctx.view(dest, "long", 1)
            # A slow PE writes its dest just before the collective.
            ctx.compute(5000.0 * ctx.my_pe())
            v[0] = -1
            src = ctx.private_malloc(64)
            if ctx.my_pe() == 0:
                ctx.view(src, "long", 1)[0] = 123
            ctx.long_broadcast(dest, src, 1, 1, 0)
            got = int(v[0])
            ctx.close()
            return got

        assert run_machine(4, body) == [123] * 4


class TestAlgorithms:
    @pytest.mark.parametrize("algorithm", ["binomial", "linear", "ring"])
    def test_all_algorithms_agree(self, algorithm):
        data = np.arange(8, dtype=np.int64)
        results = run_broadcast(5, 8, 1, 2, np.dtype(np.int64), data,
                                algorithm=algorithm)
        for got in results:
            assert np.array_equal(got, data)

    def test_unknown_algorithm(self):
        with pytest.raises(Exception):
            run_broadcast(2, 1, 1, 0, np.dtype(np.int64),
                          np.array([1], dtype=np.int64),
                          algorithm="quantum")

    def test_auto_selects(self):
        data = np.array([9], dtype=np.int64)
        results = run_broadcast(4, 1, 1, 0, np.dtype(np.int64), data,
                                algorithm="auto")
        for got in results:
            assert np.array_equal(got, data)

    def test_crossover_binomial_wins_large_linear_wins_small(self):
        """The section 4.1 premise: no single algorithm wins everywhere.
        Pipelined one-sided linear wins small payloads; the tree wins
        once the root's injection link serialises the linear scheme."""
        def timing(algorithm, nelems):
            def body(ctx):
                ctx.init()
                dest = ctx.malloc(8 * nelems)
                src = ctx.private_malloc(8 * nelems)
                ctx.barrier()
                t0 = ctx.pe.clock
                from repro.collectives import COLLECTIVES, prepare

                prepare(ctx, COLLECTIVES["broadcast"], dest, src, nelems, 1,
                        0, np.dtype(np.int64), algorithm=algorithm).run(ctx)
                ctx.barrier()
                dt = ctx.pe.clock - t0
                ctx.close()
                return dt

            res = run_machine(
                8, body, cores_per_node=1,
                memory_bytes_per_pe=8 * 1024 * 1024,
                symmetric_heap_bytes=4 * 1024 * 1024,
                collective_scratch_bytes=1024 * 1024,
            )
            return max(res)

        assert timing("linear", 64) < timing("binomial", 64)
        assert timing("binomial", 65536) < timing("linear", 65536)


class TestValidation:
    def test_bad_root(self):
        with pytest.raises(Exception):
            run_broadcast(4, 1, 1, 9, np.dtype(np.int64),
                          np.array([1], dtype=np.int64))

    def test_private_dest_rejected(self):
        def body(ctx):
            ctx.init()
            dest = ctx.private_malloc(64)
            src = ctx.private_malloc(64)
            with pytest.raises(CollectiveArgumentError, match="symmetric"):
                ctx.long_broadcast(dest, src, 1, 1, 0)
            ctx.barrier()
            ctx.close()

        run_machine(2, body)


class TestProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        n_pes=st.integers(1, 8),
        nelems=st.integers(1, 16),
        stride=st.integers(1, 3),
        seed=st.integers(0, 10_000),
        data=st.data(),
    )
    def test_broadcast_delivers_everywhere(self, n_pes, nelems, stride,
                                           seed, data):
        root = data.draw(st.integers(0, n_pes - 1))
        rng = np.random.default_rng(seed)
        payload = rng.integers(-(2 ** 31), 2 ** 31, size=nelems)
        results = run_broadcast(n_pes, nelems, stride, root,
                                np.dtype(np.int64), payload)
        for got in results:
            assert np.array_equal(got, payload)
