"""Tests for the NAS Integer Sort port."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.bench import nas_is
from repro.bench.nas_is import (
    CLASS_PARAMS,
    IsParams,
    IsResult,
    _lcg_block,
    _oracle_ranks,
    _owner_order,
    _randlc_int,
    _rank_keys,
    generate_keys,
    run_is,
)
from repro.errors import CollectiveArgumentError
from repro.params import MachineConfig

FAST = IsParams(problem_class="S-scaled", max_iterations=3,
                log2_n_buckets=6)


def fast_config(n_pes):
    return MachineConfig(
        n_pes=n_pes,
        memory_bytes_per_pe=8 * 1024 * 1024,
        symmetric_heap_bytes=4 * 1024 * 1024,
        collective_scratch_bytes=512 * 1024,
    )


class TestKeyGeneration:
    def test_vectorised_lcg_matches_scalar(self):
        x0 = 314159265
        chunk = 64
        apow = np.empty(chunk, dtype=np.uint64)
        p = 1
        for j in range(chunk):
            p = _randlc_int(p)
            apow[j] = p
        lo = apow & np.uint64((1 << 23) - 1)
        hi = apow >> np.uint64(23)
        block = _lcg_block(x0, lo, hi)
        x = x0
        for j in range(chunk):
            x = _randlc_int(x)
            assert int(block[j]) == x

    def test_keys_in_range(self):
        p = IsParams(problem_class="S-scaled")
        keys = generate_keys(p)
        assert keys.size == p.total_keys
        assert keys.min() >= 0
        assert keys.max() < p.max_key

    def test_gaussian_shape(self):
        """Sum of 4 uniforms: mean at max_key/2, thin tails."""
        p = IsParams(problem_class="S-scaled")
        keys = generate_keys(p)
        mean = keys.mean() / p.max_key
        assert 0.48 < mean < 0.52
        tail = np.count_nonzero(keys < p.max_key // 16) / keys.size
        assert tail < 0.01

    def test_deterministic(self):
        p = IsParams(problem_class="S-scaled")
        assert np.array_equal(generate_keys(p), generate_keys(p))

    def test_npb_class_table(self):
        assert CLASS_PARAMS["B"] == (25, 21)
        assert CLASS_PARAMS["S"] == (16, 11)

    def test_unknown_class_rejected(self):
        with pytest.raises(CollectiveArgumentError):
            IsParams(problem_class="Z")

    @pytest.mark.parametrize("iterations", [0, -1])
    def test_no_iteration_rejected(self, iterations):
        with pytest.raises(CollectiveArgumentError, match="max_iterations"):
            IsParams(problem_class="S-scaled", max_iterations=iterations)

    @pytest.mark.parametrize("iterations", [2048, 5000])
    def test_iterations_past_max_key_rejected(self, iterations):
        """Key ``max_key - it`` would go negative (S-scaled: 2^11)."""
        with pytest.raises(CollectiveArgumentError, match="max_iterations"):
            IsParams(problem_class="S-scaled", max_iterations=iterations)
        IsParams(problem_class="S-scaled", max_iterations=2047)

    def test_iterations_past_key_count_rejected(self, monkeypatch):
        """Iteration ``it`` mutates key index ``it + max_iterations``;
        a class of 16 keys below 16 has no index 16."""
        monkeypatch.setitem(CLASS_PARAMS, "tiny", (4, 4))
        IsParams(problem_class="tiny", max_iterations=7)
        with pytest.raises(CollectiveArgumentError, match="key index"):
            IsParams(problem_class="tiny", max_iterations=8)


def _oracle_ranks_reference(keys, test_keys, params):
    """The brute-force oracle: apply each iteration's two mutations and
    re-sort every key."""
    work = keys.copy()
    out = np.zeros((params.max_iterations + 1, test_keys.size),
                   dtype=np.int64)
    for it in range(1, params.max_iterations + 1):
        work[it] = it
        work[it + params.max_iterations] = params.max_key - it
        s = np.sort(work)
        out[it] = np.searchsorted(s, test_keys, "left")
    return out


class TestOracle:
    @pytest.mark.parametrize("seed", [314159265.0, 271828183.0])
    @pytest.mark.parametrize("cls", ["S-scaled", "S", "A-scaled"])
    def test_matches_per_iteration_sort(self, cls, seed):
        params = IsParams(problem_class=cls, seed=seed)
        keys = generate_keys(params)
        m, top = params.max_iterations, params.max_key
        # The values the mutations write and overwrite, their
        # neighbours, and the harness's own kind of draw.
        edge = [0, 1, 2, m // 2, m, m + 1, top - m, top - m // 2, top - 2,
                top - 1, top // 2, keys[1], keys[m], keys[m + 1],
                keys[2 * m]]
        rng = np.random.default_rng(int(seed))
        test_keys = np.concatenate(
            (edge, rng.integers(top // 8, 7 * top // 8, size=5))
        ).astype(np.int64)
        got = _oracle_ranks(keys, test_keys, params)
        assert np.array_equal(
            got, _oracle_ranks_reference(keys, test_keys, params))

    @pytest.mark.parametrize("iterations", [1, 10, 100])
    def test_sorts_once(self, iterations, monkeypatch):
        """The work gate: one sort of the keys, however many iterations
        the oracle follows."""
        params = IsParams(problem_class="S-scaled",
                          max_iterations=iterations)
        keys = generate_keys(params)
        sorts = []
        real_sort = np.sort

        def counting_sort(*args, **kwargs):
            sorts.append(1)
            return real_sort(*args, **kwargs)

        monkeypatch.setattr(np, "sort", counting_sort)
        _oracle_ranks(keys, np.arange(0, params.max_key, 97), params)
        assert len(sorts) == 1


class TestRedistribution:
    @pytest.mark.parametrize("n", [1, 8, 255, 256, 300, 70_000])
    def test_order_is_the_stable_int64_argsort(self, n):
        """Owner counts on both sides of the uint8, uint16 and uint32
        boundaries."""
        rng = np.random.default_rng(n)
        owner_of_bucket = np.sort(rng.integers(0, n, size=4096))
        owner_of_bucket[-1] = n - 1
        key_bucket = rng.integers(0, owner_of_bucket.size, size=20_000)
        want = np.argsort(owner_of_bucket[key_bucket], kind="stable")
        assert np.array_equal(
            _owner_order(owner_of_bucket, key_bucket, n), want)

    def test_argsorts_at_most_16_bits(self, monkeypatch):
        """The work gate: every argsort the kernel runs is over an 8- or
        16-bit array (numpy's radix sort) up to 65 536 PEs."""
        widths = []
        real_argsort = np.argsort

        def recording_argsort(a, *args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__")
            if caller == nas_is.__name__:
                widths.append(np.asarray(a).dtype.itemsize)
            return real_argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", recording_argsort)
        key_bucket = np.arange(64) % 16
        for n in (1, 2, 256, 257, 65_536):
            owner_of_bucket = np.minimum(np.arange(16), n - 1)
            _owner_order(owner_of_bucket, key_bucket, n)
        run_is(fast_config(4), FAST)
        assert len(widths) == 5 + 4 * FAST.max_iterations
        assert max(widths) <= 2


class TestRanking:
    """The counting sort that ranks a PE's received keys gives the bytes
    ``np.sort`` gives, at the edges of the PE's key range."""

    MAX_KEY = FAST.max_key
    SHIFT = 5  # FAST: 2^11 keys in 2^6 buckets

    @pytest.mark.parametrize("first,last,keys", [
        (3, 9, []),                               # an empty receive
        (7, 7, []),                               # a PE owning no bucket
        (12, 13, [12 << 5, 13 * 32 - 1, 12 << 5]),  # one bucket, both ends
        (0, 2, [1, 2, 3, 0, 3, 2]),               # the tweak keys ``it``
        (60, 64, [MAX_KEY - 1, MAX_KEY - 2, MAX_KEY - 3, 60 << 5]),
        (0, 64, [0, MAX_KEY - 1]),                # the whole key range
    ])
    def test_matches_np_sort(self, first, last, keys):
        got = np.array(keys, dtype=np.int32)
        out = _rank_keys(got, first << self.SHIFT, last << self.SHIFT)
        assert out.dtype == np.int32
        assert out.tobytes() == np.sort(got).tobytes()

    @pytest.mark.parametrize("n_pes", [1, 2, 4])
    def test_every_rank_in_a_run_matches_np_sort(self, monkeypatch, n_pes):
        ranked = []

        def checked(got, lo, hi):
            out = _rank_keys(got, lo, hi)
            assert out.tobytes() == np.sort(got).tobytes()
            ranked.append(got.size)
            return out

        monkeypatch.setattr(nas_is, "_rank_keys", checked)
        res = run_is(fast_config(n_pes), FAST)
        assert res.partial_verified and res.full_verified
        assert len(ranked) == n_pes * FAST.max_iterations
        assert sum(ranked) == FAST.total_keys * FAST.max_iterations


class TestIsRun:
    @pytest.mark.parametrize("n_pes", [1, 2, 4])
    def test_verification(self, n_pes):
        res = run_is(fast_config(n_pes), FAST)
        assert res.partial_verified
        assert res.full_verified
        assert res.sim_seconds > 0

    def test_receive_buffer_holds_the_largest_bucket(self):
        """With 64 buckets the largest holds ~2.7x the mean, past the
        default slack of total/32 keys: the buffer is sized from the
        keys, and the run that overflowed it verifies."""
        config = fast_config(8)
        assert FAST.recv_cap(8, generate_keys(FAST)) > FAST.recv_cap(8)
        res = run_is(config, FAST)
        assert res.partial_verified
        assert res.full_verified

    def test_mops_accounting(self):
        res = IsResult(n_pes=2, problem_class="S", total_keys=1 << 16,
                       iterations=10, sim_seconds=1e-2,
                       partial_verified=True, full_verified=True)
        assert res.mops_total == pytest.approx(10 * (1 << 16) / 1e-2 / 1e6)
        assert res.mops_per_pe == res.mops_total / 2

    def test_key_reuse_across_sweep(self):
        keys = generate_keys(FAST)
        a = run_is(fast_config(2), FAST, keys)
        b = run_is(fast_config(2), FAST, keys)
        assert a.sim_seconds == b.sim_seconds

    def test_key_count_must_match_class(self):
        with pytest.raises(CollectiveArgumentError):
            run_is(fast_config(2), FAST, np.zeros(10, dtype=np.int64))

    def test_uses_reduce_and_broadcast(self):
        """Section 5.2: IS exercises the reduction and broadcast
        collectives."""
        from repro.runtime import Machine
        from repro.bench.nas_is import _is_pe

        keys = generate_keys(FAST)
        rng = np.random.default_rng(5)
        tk = rng.integers(FAST.max_key // 8, 7 * FAST.max_key // 8, size=5,
                          dtype=np.int64)
        tr = _oracle_ranks(keys, tk, FAST)
        n = 2
        chunk = FAST.total_keys // n
        m = Machine(fast_config(n))
        m.run(_is_pe, [(FAST, keys[r * chunk:(r + 1) * chunk], tk, tr,
                        FAST.recv_cap(n, keys)) for r in range(n)])
        calls = m.stats.collective_calls
        assert any(k.startswith("reduce:sum") for k in calls)
        assert any(k.startswith("broadcast") for k in calls)
        assert any(k.startswith("alltoall") for k in calls)
