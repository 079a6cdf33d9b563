"""Tests for the sweep harness, shape checks and reporting."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

from repro.bench.harness import (
    SweepPoint,
    bench_report,
    check_figure4_shape,
    check_figure5_shape,
    main as harness_main,
    oversubscription_gate,
    sweep_gups,
)
from repro.bench.gups import GupsParams
from repro.bench.reporting import (
    render_figure,
    render_figure3,
    render_table1,
    render_table2,
)
from repro.params import MachineConfig


def pt(n, total, per_pe, verified=True):
    return SweepPoint(n_pes=n, mops_total=total, mops_per_pe=per_pe,
                      verified=verified)


class TestShapeChecks:
    def test_paper_shape_passes_figure4(self):
        # The qualitative Figure 4 shape in made-up units.
        points = [pt(1, 2.0, 2.0), pt(2, 4.7, 2.35), pt(4, 8.8, 2.2),
                  pt(8, 12.8, 1.6)]
        assert check_figure4_shape(points) == []

    def test_flat_scaling_fails_figure4(self):
        points = [pt(1, 2.0, 2.0), pt(2, 2.2, 1.1), pt(4, 2.4, 0.6),
                  pt(8, 2.5, 0.3)]
        assert check_figure4_shape(points)

    def test_no_drop_fails_figure4(self):
        points = [pt(1, 2.0, 2.0), pt(2, 4.8, 2.4), pt(4, 9.2, 2.3),
                  pt(8, 20.0, 2.5)]
        assert "no per-PE drop at 8 PEs" in check_figure4_shape(points)

    def test_unverified_fails(self):
        points = [pt(1, 2.0, 2.0, verified=False)]
        assert "verification failed" in check_figure4_shape(points)

    def test_paper_shape_passes_figure5(self):
        points = [pt(1, 10.0, 10.0), pt(2, 20.0, 10.0), pt(4, 40.0, 10.0),
                  pt(8, 60.0, 7.5)]
        assert check_figure5_shape(points) == []

    def test_figure5_wants_25pc_drop(self):
        points = [pt(1, 10.0, 10.0), pt(2, 20.0, 10.0), pt(4, 40.0, 10.0),
                  pt(8, 79.0, 9.9)]
        bad = check_figure5_shape(points)
        assert any("drop" in b for b in bad)


class TestSweeps:
    def test_gups_sweep_returns_points(self):
        cfg = MachineConfig(
            n_pes=1,
            memory_bytes_per_pe=4 * 1024 * 1024,
            symmetric_heap_bytes=2 * 1024 * 1024,
            collective_scratch_bytes=256 * 1024,
        )
        pts = sweep_gups(pe_counts=(1, 2),
                         params=GupsParams(log2_table_size=12,
                                           updates_per_pe=64),
                         base_config=cfg)
        assert [p.n_pes for p in pts] == [1, 2]
        assert all(p.mops_total > 0 for p in pts)


class TestReporting:
    def test_table1_lists_24_types(self):
        text = render_table1()
        assert "ptrdiff" in text and "long double" in text
        assert len([l for l in text.splitlines() if l and "-" not in l[:2]
                    and "TYPENAME" not in l]) == 24

    def test_table2_matches_paper(self):
        text = render_table2()
        rows = [tuple(map(int, line.split()))
                for line in text.splitlines()[2:]]
        assert rows == [(0, 3), (1, 4), (2, 5), (3, 6), (4, 0), (5, 1),
                        (6, 2)]

    def test_figure3_renders_tree(self):
        assert "0->4" in render_figure3(8)

    def test_render_figure_rows(self):
        text = render_figure([pt(1, 2.0, 2.0), pt(8, 12.8, 1.6)], "t")
        assert "12.800" in text and "1.600" in text


class TestDescribeAndCsv:
    def test_machine_describe(self):
        from repro.runtime import Machine
        from repro.params import MachineConfig

        text = Machine(MachineConfig(n_pes=4)).describe()
        assert "4 PEs" in text
        assert "L1 16 KiB/8-way" in text
        assert "TLB 256 entries" in text
        assert "xbgas" in text

    def test_sweep_to_csv(self):
        from repro.bench.reporting import sweep_to_csv

        csv = sweep_to_csv([pt(1, 2.0, 2.0), pt(8, 12.8, 1.6, False)])
        lines = csv.strip().splitlines()
        assert lines[0] == "n_pes,mops_total,mops_per_pe,verified"
        assert lines[1].startswith("1,2.000000,2.000000,1")
        assert lines[2].endswith(",0")


class TestOversubscriptionGate:
    """--backend mp refuses to oversubscribe a small host (and says why)."""

    def test_fits_within_cores(self):
        ok, why = oversubscription_gate([1, 2, 4], cpu_count=4)
        assert ok and why == ""

    def test_refuses_more_pes_than_cores(self):
        ok, why = oversubscription_gate([1, 2, 8], cpu_count=2)
        assert not ok
        assert "8 worker processes" in why
        assert "2 core(s)" in why
        assert "--oversubscribe" in why

    def test_override_allows_it(self):
        ok, why = oversubscription_gate([64], oversubscribe=True,
                                        cpu_count=1)
        assert ok and why == ""

    def test_cli_refuses_without_override(self, capsys):
        status = harness_main(["--pes", "1", "2", "4096"])
        assert status == 2
        out = capsys.readouterr().out
        assert "refusing the mp sweep" in out
        assert "--oversubscribe" in out

    def test_report_records_gating(self):
        points = [pt(1, 1.0, 1.0), pt(4, 3.0, 0.75)]
        rep = bench_report("gups", "mp", points, oversubscribed=True)
        assert rep["host"]["oversubscribed"] is True
        assert isinstance(rep["host"]["cpu_count"], int)
        rep = bench_report("gups", "mp", points, oversubscribed=False)
        assert rep["host"]["oversubscribed"] is False

    def test_sim_reports_omit_the_flag(self):
        rep = bench_report("gups", "sim", [pt(1, 1.0, 1.0)])
        assert "oversubscribed" not in rep["host"]


@pytest.mark.parametrize("module", ["repro.bench.harness",
                                    "repro.bench.sweeps"])
def test_cli_runs_without_runpy_warning(module):
    """``python -m`` must find the module unimported by its package:
    runpy's "found in sys.modules" RuntimeWarning is an error here."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", module,
         "--help"], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "RuntimeWarning" not in done.stderr
