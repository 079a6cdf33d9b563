"""Tests for the GUPs benchmark port."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.gups import (
    PERIOD,
    POLY,
    GupsParams,
    GupsResult,
    _lcg_step,
    _mix64,
    hpcc_starts,
    run_gups,
    run_gups_backend,
)
from repro.errors import CollectiveArgumentError
from repro.params import MachineConfig

FAST = GupsParams(log2_table_size=12, updates_per_pe=256)


def fast_config(n_pes):
    return MachineConfig(
        n_pes=n_pes,
        memory_bytes_per_pe=4 * 1024 * 1024,
        symmetric_heap_bytes=2 * 1024 * 1024,
        collective_scratch_bytes=256 * 1024,
    )


class TestHpccGenerator:
    def test_starts_zero_is_one(self):
        assert hpcc_starts(0) == 1

    def test_starts_matches_stepping(self):
        """starts(n) must equal n sequential LCG steps from 1."""
        ran = 1
        for n in range(1, 40):
            ran = _lcg_step(ran)
            assert hpcc_starts(n) == ran

    def test_starts_jump_far(self):
        # Jump to position 10_000 and compare with stepping from 9_990.
        ran = hpcc_starts(9_990)
        for _ in range(10):
            ran = _lcg_step(ran)
        assert hpcc_starts(10_000) == ran

    def test_period_reduction(self):
        assert hpcc_starts(PERIOD + 5) == hpcc_starts(5)

    def test_poly_constant(self):
        assert POLY == 7  # x^63 + x^2 + x + 1 feedback

    def test_mix64_is_bijective_on_samples(self):
        xs = [hpcc_starts(i * 997) for i in range(200)]
        assert len({_mix64(x) for x in xs}) == len(set(xs))

    def test_mixed_indices_are_spread(self):
        """The decorrelated index stream must cover many pages."""
        ran, pages = 1, set()
        for _ in range(2048):
            ran = _lcg_step(ran)
            pages.add((_mix64(ran) & (2 ** 22 - 1)) >> 9)
        assert len(pages) > 1500


class TestGupsRun:
    @pytest.mark.parametrize("n_pes", [1, 2, 4])
    def test_verification_passes(self, n_pes):
        res = run_gups(fast_config(n_pes), FAST)
        assert res.passed
        assert res.total_updates == 256 * n_pes
        assert res.sim_seconds > 0

    def test_mops_accounting(self):
        res = GupsResult(n_pes=4, table_size=1 << 12, total_updates=4_000,
                         sim_seconds=1e-3, errors=0, verified=True)
        assert res.mops_total == pytest.approx(4.0)
        assert res.mops_per_pe == pytest.approx(1.0)
        assert res.gups == pytest.approx(0.004)

    def test_hpcc_acceptance_threshold(self):
        ok = GupsResult(2, 4096, 10_000, 1e-3, errors=100, verified=True)
        bad = GupsResult(2, 4096, 10_000, 1e-3, errors=101, verified=True)
        assert ok.passed and not bad.passed

    def test_unverified_run_always_passes(self):
        res = run_gups(fast_config(2),
                       GupsParams(log2_table_size=12, updates_per_pe=64,
                                  verify=False))
        assert res.passed and res.errors == 0

    def test_table_divisibility_enforced(self):
        # Refused on the caller's thread, before any PE starts: the
        # error itself, not a SimulationError wrapping a PE's failure.
        with pytest.raises(CollectiveArgumentError, match="not divisible"):
            run_gups(fast_config(3), FAST)  # 2^12 % 3 != 0

    def test_deterministic(self):
        a = run_gups(fast_config(2), FAST)
        b = run_gups(fast_config(2), FAST)
        assert a.sim_seconds == b.sim_seconds
        assert a.errors == b.errors

    def test_uses_collectives(self):
        from repro.runtime import Machine
        from repro.bench.gups import _gups_pe

        m = Machine(fast_config(2))
        m.run(_gups_pe, [(FAST,)] * 2)
        calls = m.stats.collective_calls
        assert any(k.startswith("broadcast") for k in calls)
        assert any(k.startswith("reduce:sum") for k in calls)


class TestGupsParamsBounds:
    """Bad parameters are refused where they are given, not after the PE
    threads have started (where they died as an ``OverflowError`` in
    PE 0, a "negative time advance" mid-run, or a wrapped error)."""

    def test_negative_table_size(self):
        with pytest.raises(ValueError, match="log2_table_size"):
            GupsParams(log2_table_size=-1)

    def test_negative_update_count(self):
        with pytest.raises(ValueError, match="updates_per_pe"):
            GupsParams(updates_per_pe=-4)

    @pytest.mark.parametrize("ns", [-1.0, float("nan"), float("inf")])
    def test_bad_update_overhead(self, ns):
        with pytest.raises(ValueError, match="update_overhead_ns"):
            GupsParams(update_overhead_ns=ns)

    def test_edges_are_accepted(self):
        params = GupsParams(log2_table_size=0, updates_per_pe=0,
                            update_overhead_ns=0.0)
        assert params.table_size == 1
        res = run_gups(fast_config(1), params)
        assert res.total_updates == 0 and res.errors == 0

    @pytest.mark.parametrize("backend", ["sim", "vec", "mp"])
    def test_table_smaller_than_the_machine(self, backend, monkeypatch):
        """2^2 words on 8 PEs: refused before any backend starts."""
        import repro.backends as backends

        def no_backend(name):
            raise AssertionError("a backend was started")

        monkeypatch.setattr(backends, "get_backend", no_backend)
        with pytest.raises(CollectiveArgumentError, match="not divisible"):
            run_gups_backend(fast_config(8), GupsParams(log2_table_size=2),
                             backend=backend)
