"""The model-time sweep registry and its check (the BENCH_*.json curves)."""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

from repro.bench.sweeps import (
    LINEAR_MAX_PES,
    RING_MAX_PES,
    SWEEPS,
    batch_point,
    check_sweep,
    depth_point,
    mailbox_point,
    main,
    pipeline_point,
    vec_point,
)

_ROOT = pathlib.Path(__file__).resolve().parents[2]
NAMES = sorted(SWEEPS)


def committed(name: str) -> dict:
    return json.loads((_ROOT / SWEEPS[name].file).read_text())


def fresh_index(name: str) -> int:
    sweep = SWEEPS[name]
    return sweep.tables[0].grid().index(sweep.fresh)


class TestPoints:
    def test_vec_all_algorithms_below_the_caps(self):
        p = vec_point("broadcast", 64, 8)
        assert set(p["makespans_ns"]) == {"binomial", "linear", "ring"}
        assert p["winner"] in p["makespans_ns"]
        assert all(v > 0 for v in p["makespans_ns"].values())

    def test_vec_ring_capped_past_512(self):
        p = vec_point("allreduce", RING_MAX_PES * 2, 8)
        assert set(p["makespans_ns"]) == {"doubling", "rabenseifner"}

    def test_vec_linear_capped_past_1024(self):
        p = vec_point("broadcast", LINEAR_MAX_PES * 4, 8)
        assert set(p["makespans_ns"]) == {"binomial"}
        # Tuning may pick a capped algorithm; the point records that
        # instead of judging against a measurement that does not exist.
        if not p["tuning_pick_measured"]:
            assert p["tuning_within_1p25x"] is None

    def test_pipeline_all_three_algorithms_below_the_cap(self):
        p = pipeline_point(24, 8192)
        assert set(p["makespans_ns"]) == {"ring", "rabenseifner",
                                          "dual-pipelined"}
        assert p["winner"] in p["makespans_ns"]
        assert p["ring_over_dual"] > 0 and p["segments"] >= 2

    def test_pipeline_ring_capped_past_512(self):
        p = pipeline_point(RING_MAX_PES * 2, 8192)
        assert "ring" not in p["makespans_ns"]
        assert p["ring_over_dual"] is None

    def test_pipeline_acceptance_bar_holds_at_64_pes(self):
        """Dual-pipelined beats the ring by >= 1.3x at 64 PEs x 64 KiB."""
        assert pipeline_point(64, 8192)["ring_over_dual"] >= 1.3

    def test_batch_speedup_grows_with_batch_width(self):
        assert (batch_point(16, 8, 32)["speedup"]
                > batch_point(16, 8, 8)["speedup"])

    def test_batch_speedup_decays_toward_bandwidth_bound(self):
        assert (batch_point(16, 8, 8)["speedup"]
                > batch_point(16, 512, 8)["speedup"])

    def test_batch_acceptance_bar_holds_at_512_bytes(self):
        """K = 8 fused allreduces of 512 B beat eager by >= 2x."""
        assert batch_point(16, 64, 8)["speedup"] >= 2.0

    def test_mailbox_overhead_ceiling_holds_live(self):
        """The 1.5x ceiling, measured fresh at every small tier."""
        assert all(mailbox_point(n, 1024)["overhead"] <= 1.5
                   for n in (4, 8, 16))

    def test_mailbox_push_beats_pull_at_scale(self):
        """The lowering's eager sends overlap where gets round-trip: at
        64 PEs the two-sided form must not be slower."""
        assert mailbox_point(64, 1024)["overhead"] <= 1.0

    def test_depth_one_queue_completes(self):
        p = depth_point(1)
        assert p["elapsed_ns"] > 0 and p["sends"] > 0

    def test_deep_queue_never_stalls(self):
        assert depth_point(64)["stalls"] == 0


@pytest.mark.parametrize("name", NAMES)
class TestRegistry:
    def test_fresh_point_is_deterministic_and_on_the_grid(self, name):
        sweep = SWEEPS[name]
        assert sweep.fresh in sweep.tables[0].grid()
        assert (sweep.tables[0].point(**sweep.fresh)
                == sweep.tables[0].point(**sweep.fresh))

    def test_committed_file_passes_the_check(self, name):
        assert check_sweep(SWEEPS[name], committed(name)) == []

    def test_committed_file_records_the_acceptance_points(self, name):
        """The sweep's acceptance rules alone, with no re-measurement."""
        assert SWEEPS[name].rules(committed(name)) == []

    def test_fresh_makespan_off_by_one_ns_fails(self, name):
        doc = committed(name)
        point = doc["points"][fresh_index(name)]
        if "makespans_ns" in point:  # an allreduce: vec or pipeline
            point["makespans_ns"]["rabenseifner"] += 1.0
        else:
            point[next(k for k in point if k.endswith("_ns"))] += 1.0
        assert any("fresh point" in p for p in check_sweep(SWEEPS[name], doc))

    def test_dropped_point_fails(self, name):
        doc = committed(name)
        del doc["points"][-1]
        assert any("grid" in p
                   for p in check_sweep(SWEEPS[name], doc))

    def test_missing_key_fails(self, name):
        doc = committed(name)
        del doc["points"][0]["n_pes"]
        problems = check_sweep(SWEEPS[name], doc)
        assert any("missing keys" in p for p in problems)

    def test_wrong_bench_key_fails(self, name):
        doc = committed(name)
        doc["bench"] = "other"
        assert any(p.startswith("bench is 'other'")
                   for p in check_sweep(SWEEPS[name], doc))


@pytest.mark.parametrize("name, field, value, message", [
    ("pipeline", "ring_over_dual", 1.0, "no point with"),
    ("batch", "speedup", 1.0, "no point with"),
    ("mailbox", "overhead", 2.0, "exceeds the 1.5x ceiling"),
], ids=["pipeline", "batch", "mailbox"])
def test_acceptance_rule_breach_fails(name, field, value, message):
    """No point meets the bar any more (or, for the mailbox ceiling,
    every point breaks it)."""
    doc = committed(name)
    for p in doc["points"]:
        p[field] = value
    problems = check_sweep(SWEEPS[name], doc)
    assert any(message in p for p in problems)


def test_stalling_deep_queue_fails():
    doc = committed("mailbox")
    doc["depth_curve"][-1]["stalls"] = 5
    problems = check_sweep(SWEEPS["mailbox"], doc)
    assert any("deepest queue still stalls" in p for p in problems)


def test_cli_checks_and_writes(tmp_path, monkeypatch, capsys):
    """Default mode checks the files in the current directory; --write
    regenerates them identical to the committed copy but for the host."""
    monkeypatch.chdir(_ROOT)
    assert main([]) == 0
    monkeypatch.chdir(tmp_path)
    assert main(["--write", "mailbox"]) == 0
    assert main(["mailbox"]) == 0
    written = json.loads((tmp_path / "BENCH_mailbox.json").read_text())
    expected = committed("mailbox")
    del written["host"]
    del expected["host"]
    assert written == expected
    assert "queue-depth curve" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(["nonesuch"])


@pytest.mark.parametrize("name", NAMES)
def test_cli_writes_json(name, tmp_path, monkeypatch, capsys):
    """--write on a one-point grid (the fresh point; the deepest queue
    for the depth curve) writes the committed point, and the file it
    writes passes the default check."""
    sweep = SWEEPS[name]
    expected = committed(name)["points"][fresh_index(name)]
    first, *rest = sweep.tables
    small = dataclasses.replace(sweep, tables=(
        dataclasses.replace(first, axes=tuple(
            a._replace(values=(sweep.fresh[a.coord],)) for a in first.axes)),
        *(dataclasses.replace(t, axes=tuple(
            a._replace(values=a.values[-1:]) for a in t.axes))
          for t in rest)))
    monkeypatch.setitem(SWEEPS, name, small)
    monkeypatch.chdir(tmp_path)
    assert main(["--write", name]) == 0
    written = json.loads((tmp_path / sweep.file).read_text())
    assert written["points"] == [expected]
    assert main([name]) == 0
    out = capsys.readouterr().out
    assert first.title in out and f"wrote {sweep.file}" in out
