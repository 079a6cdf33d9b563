"""The serving traffic generator and the BENCH_serve.json check."""

from __future__ import annotations

import dataclasses
import json
import pathlib

from repro.bench.serve_sweep import build_jobs, check_report

_REFERENCE = pathlib.Path(__file__).resolve().parents[2] / "BENCH_serve.json"


class TestBuildJobs:
    def test_seed_deterministic(self):
        a = build_jobs(7, 4.0, 20.0, fault_rate=0.3)
        assert a == build_jobs(7, 4.0, 20.0, fault_rate=0.3)
        assert a != build_jobs(8, 4.0, 20.0, fault_rate=0.3)
        assert len({spec.tenant for _, spec in a}) > 1

    def test_fault_free_is_the_same_jobs_minus_the_faults(self):
        faulty = build_jobs(7, 4.0, 20.0, fault_rate=0.3)
        clean = build_jobs(7, 4.0, 20.0)
        assert any(spec.fault for _, spec in faulty)
        assert not any(spec.fault for _, spec in clean)
        assert clean == [
            (t, dataclasses.replace(spec, fault=None, fault_rank=0))
            for t, spec in faulty]


class TestCheckReport:
    def _edited(self, tmp_path, edit) -> str:
        rep = json.loads(_REFERENCE.read_text())
        edit(rep)
        path = tmp_path / "serve.json"
        path.write_text(json.dumps(rep))
        return str(path)

    def test_committed_report_passes(self):
        assert check_report(str(_REFERENCE), smoke=False) == []

    def test_flags_non_monotonic_percentiles(self, tmp_path):
        def edit(rep):
            lat = rep["results"]["latency_s"]
            lat["p50"] = lat["p99"] * 2

        problems = check_report(self._edited(tmp_path, edit), smoke=False)
        assert any("not monotonic" in p for p in problems)

    def test_flags_fewer_than_eight_tenants(self, tmp_path):
        def edit(rep):
            rep["tenants"].pop(sorted(rep["tenants"])[0])

        problems = check_report(self._edited(tmp_path, edit), smoke=False)
        assert any("tenants" in p for p in problems)
