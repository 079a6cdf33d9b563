"""Smoke tests for the wall-clock perf-regression harness.

The heavy full-size measurements run in the CI perf-smoke job
(``python -m repro.perf --check``); here we verify the harness itself —
that quick-size benchmarks run both arms, the check logic flags
regressions, and the committed ``BENCH_simwall.json`` baseline is
well-formed and clears the floors it is checked against.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.perf import (
    BENCH_FILENAME,
    CHECK_FLOORS,
    SCHEMA,
    BenchResult,
    bench_engine_switch,
    run_all,
)
from repro.perf.__main__ import _check

REPO_ROOT = Path(__file__).resolve().parents[2]
BASELINE = REPO_ROOT / BENCH_FILENAME


class TestHarness:
    def test_bench_result_speedup(self):
        r = BenchResult(name="x", detail="", repeats=3, before_s=2.0,
                        after_s=0.5)
        assert r.speedup == 4.0
        assert r.as_dict()["speedup"] == 4.0

    def test_engine_switch_quick_runs_both_arms(self):
        r = bench_engine_switch(repeats=1, quick=True)
        assert r.before_s > 0 and r.after_s > 0
        assert r.repeats == 1

    @pytest.mark.slow
    def test_run_all_quick_document_shape(self):
        doc = run_all(repeats=1, quick=True)
        assert doc["schema"] == SCHEMA
        assert doc["quick"] is True
        assert set(doc["benchmarks"]) == set(CHECK_FLOORS)
        for row in doc["benchmarks"].values():
            assert row["before_s"] > 0 and row["after_s"] > 0


class TestCheckLogic:
    def _doc(self, speedup, after_s=1.0):
        return {
            "benchmarks": {
                "engine_switch": {
                    "before_s": after_s * speedup,
                    "after_s": after_s,
                    "speedup": speedup,
                }
            }
        }

    def test_ok_when_fast_and_within_budget(self):
        assert _check(self._doc(3.0, after_s=10.0),
                      self._doc(3.0, after_s=1.0)) == []

    def test_flags_speedup_below_floor(self):
        problems = _check(self._doc(1.0), self._doc(3.0))
        assert any("below floor" in p for p in problems)

    def test_flags_missing_benchmark(self):
        problems = _check(self._doc(3.0), {"benchmarks": {}})
        assert any("missing from baseline" in p for p in problems)


class TestCommittedBaseline:
    def test_baseline_exists_and_is_current_schema(self):
        doc = json.loads(BASELINE.read_text())
        assert doc["schema"] == SCHEMA
        assert doc["quick"] is False
        assert set(doc["benchmarks"]) == set(CHECK_FLOORS)

    def test_baseline_records_claimed_speedups(self):
        """The committed run must itself clear every ``--check`` floor,
        with room, on the host that recorded it."""
        doc = json.loads(BASELINE.read_text())
        bench = doc["benchmarks"]
        for name, floor in CHECK_FLOORS.items():
            if floor is not None:
                assert bench[name]["speedup"] >= 1.2 * floor, name
        # gups is the scalar guard: the fast paths must not cost it.
        assert bench["gups_slice"]["speedup"] >= 0.9
