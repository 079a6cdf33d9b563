"""Tests for Algorithms 3-4: scatter and gather with pe_msgs/pe_disp."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.scatter import adjusted_displacements
from repro.errors import CollectiveArgumentError

from .helpers import run_gather, run_machine, run_scatter


def dense_layout(msgs):
    """Contiguous displacements for the given counts."""
    return [sum(msgs[:i]) for i in range(len(msgs))]


class TestAdjustedDisplacements:
    def test_root_zero_is_prefix_sum(self):
        assert adjusted_displacements([2, 3, 1], 0) == [0, 2, 5, 6]

    def test_nonzero_root_reorders_by_virtual_rank(self):
        """The paper's example: with root 4 of 7, virtual order is
        logical 4,5,6,0,1,2,3."""
        msgs = [10, 11, 12, 13, 14, 15, 16]
        adj = adjusted_displacements(msgs, 4)
        # Segment sizes in virtual order:
        sizes = [adj[i + 1] - adj[i] for i in range(7)]
        assert sizes == [14, 15, 16, 10, 11, 12, 13]

    def test_total(self):
        assert adjusted_displacements([1, 2, 3], 1)[-1] == 6


class TestScatter:
    @pytest.mark.parametrize("n_pes", [1, 2, 3, 4, 7, 8])
    def test_equal_counts(self, n_pes):
        msgs = [3] * n_pes
        disp = dense_layout(msgs)
        src = np.arange(3 * n_pes, dtype=np.int64) * 5
        results = run_scatter(n_pes, msgs, disp, 0, np.dtype(np.int64), src)
        for pe, got in enumerate(results):
            assert np.array_equal(got, src[disp[pe]:disp[pe] + 3])

    def test_distinct_counts(self):
        """The pe_msgs versatility: a different count per PE."""
        msgs = [1, 4, 0, 2]
        disp = dense_layout(msgs)
        src = np.arange(7, dtype=np.int64) + 100
        results = run_scatter(4, msgs, disp, 0, np.dtype(np.int64), src)
        assert np.array_equal(results[0], [100])
        assert np.array_equal(results[1], [101, 102, 103, 104])
        assert results[2].size == 0
        assert np.array_equal(results[3], [105, 106])

    @pytest.mark.parametrize("root", [0, 1, 4, 6])
    def test_nonzero_root_noncontiguous_case(self, root):
        """The exact scenario of section 4.5: with a non-zero root the
        virtual-rank segments are non-contiguous in src, and the
        adj_disp reordering must still deliver the right pieces."""
        n = 7
        msgs = [i + 1 for i in range(n)]
        disp = dense_layout(msgs)
        src = np.arange(sum(msgs), dtype=np.int64)
        results = run_scatter(n, msgs, disp, root, np.dtype(np.int64), src)
        for pe, got in enumerate(results):
            want = src[disp[pe]:disp[pe] + msgs[pe]]
            assert np.array_equal(got, want), f"pe {pe}"

    def test_scattered_displacements(self):
        """pe_disp need not be dense or ordered."""
        msgs = [2, 2]
        disp = [4, 0]  # PE0's data sits after PE1's in src
        src = np.array([10, 11, 99, 99, 20, 21], dtype=np.int64)
        results = run_scatter(2, msgs, disp, 0, np.dtype(np.int64), src)
        assert np.array_equal(results[0], [20, 21])
        assert np.array_equal(results[1], [10, 11])

    @pytest.mark.parametrize("msgs,disp,nelems,needle", [
        ([1], [0], 1, "pe_msgs"),            # wrong length
        ([2, 3], [0, 2], 4, "nelems"),       # sum(pe_msgs) != nelems
        ([-1, 5], [0, 0], 4, "negative"),    # negative count
        ([2, 2], [0, -1], 4, "negative"),    # negative displacement
    ])
    def test_validation(self, msgs, disp, nelems, needle):
        from repro.collectives.request import check_layout

        with pytest.raises(CollectiveArgumentError, match=needle):
            check_layout(msgs, disp, nelems, 2, "scatter")


class TestGather:
    @pytest.mark.parametrize("n_pes", [1, 2, 3, 4, 7, 8])
    def test_equal_counts(self, n_pes):
        msgs = [2] * n_pes
        disp = dense_layout(msgs)
        per_pe = [np.array([pe * 10, pe * 10 + 1]) for pe in range(n_pes)]
        results = run_gather(n_pes, msgs, disp, 0, np.dtype(np.int64), per_pe)
        want = np.concatenate(per_pe)
        assert np.array_equal(results[0], want)

    def test_distinct_counts(self):
        msgs = [2, 0, 3, 1]
        disp = dense_layout(msgs)
        per_pe = [np.arange(m) + pe * 100 for pe, m in enumerate(msgs)]
        results = run_gather(4, msgs, disp, 0, np.dtype(np.int64), per_pe)
        want = np.concatenate([p for p in per_pe if p.size])
        assert np.array_equal(results[0], want)

    @pytest.mark.parametrize("root", [0, 3, 5])
    def test_nonzero_roots(self, root):
        n = 6
        msgs = [(i % 3) + 1 for i in range(n)]
        disp = dense_layout(msgs)
        per_pe = [np.arange(m) + pe * 50 for pe, m in enumerate(msgs)]
        results = run_gather(n, msgs, disp, root, np.dtype(np.int64), per_pe)
        want = np.concatenate(per_pe)
        assert np.array_equal(results[root], want)

    def test_gather_then_scatter_roundtrip(self):
        """scatter(gather(x)) == x."""
        def body(ctx):
            ctx.init()
            me, n = ctx.my_pe(), ctx.num_pes()
            msgs = [i + 1 for i in range(n)]
            disp = [sum(msgs[:i]) for i in range(n)]
            total = sum(msgs)
            mine = np.arange(msgs[me]) + me * 1000
            src = ctx.malloc(8 * max(msgs))
            mid = ctx.malloc(8 * total)
            back = ctx.private_malloc(8 * max(msgs))
            ctx.view(src, "long", msgs[me])[:] = mine
            ctx.long_gather(mid, src, msgs, disp, total, 0)
            ctx.long_scatter(back, mid, msgs, disp, total, 0)
            ok = bool(np.array_equal(ctx.view(back, "long", msgs[me]), mine))
            ctx.close()
            return ok

        assert all(run_machine(5, body))


class TestProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        n_pes=st.integers(1, 6),
        seed=st.integers(0, 10_000),
        data=st.data(),
    )
    def test_scatter_oracle(self, n_pes, seed, data):
        root = data.draw(st.integers(0, n_pes - 1))
        rng = np.random.default_rng(seed)
        msgs = [int(x) for x in rng.integers(0, 6, size=n_pes)]
        if sum(msgs) == 0:
            msgs[0] = 1
        disp = dense_layout(msgs)
        src = rng.integers(-(2 ** 40), 2 ** 40, size=sum(msgs))
        results = run_scatter(n_pes, msgs, disp, root, np.dtype(np.int64), src)
        for pe, got in enumerate(results):
            assert np.array_equal(got, src[disp[pe]:disp[pe] + msgs[pe]])

    @settings(max_examples=15, deadline=None)
    @given(
        n_pes=st.integers(1, 6),
        seed=st.integers(0, 10_000),
        data=st.data(),
    )
    def test_gather_oracle(self, n_pes, seed, data):
        root = data.draw(st.integers(0, n_pes - 1))
        rng = np.random.default_rng(seed)
        msgs = [int(x) for x in rng.integers(0, 6, size=n_pes)]
        if sum(msgs) == 0:
            msgs[-1] = 2
        disp = dense_layout(msgs)
        per_pe = [rng.integers(-(2 ** 40), 2 ** 40, size=m) for m in msgs]
        results = run_gather(n_pes, msgs, disp, root, np.dtype(np.int64),
                             per_pe)
        want = np.concatenate([p for p in per_pe]) if sum(msgs) else None
        got = results[root]
        assert np.array_equal(got[:sum(msgs)], want)
