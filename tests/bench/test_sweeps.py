"""The model-time sweep registry and its check (the BENCH_*.json files)."""

from __future__ import annotations

import copy
import dataclasses
import functools
import json
import pathlib

import pytest

from repro.bench import paper
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
    render_sweep,
    vec_point,
)

_ROOT = pathlib.Path(__file__).resolve().parents[2]
NAMES = sorted(SWEEPS)
PAPER = ("fig4", "fig5", "transport", "unroll", "topology", "locality",
         "amo", "allreduce_scan")
_REGISTRY = dict(SWEEPS)


def committed(name: str) -> dict:
    return json.loads((_ROOT / SWEEPS[name].file).read_text())


def fresh_index(name: str) -> int:
    sweep = SWEEPS[name]
    return sweep.tables[0].grid().index(sweep.fresh)


@functools.cache
def measured(name: str) -> dict:
    """The record's fresh point, measured once per session."""
    sweep = _REGISTRY[name]
    return sweep.tables[0].point(**sweep.fresh)


@pytest.fixture(autouse=True)
def _fresh_points_measured_once(monkeypatch):
    """Every check here reuses the session's one measurement of each
    record's fresh point (Figure 5's takes seconds); the mutation test
    below measures for itself."""
    for name, sweep in _REGISTRY.items():
        first, *rest = sweep.tables

        def point(_name=name, _first=first, _fresh=sweep.fresh, **coords):
            if coords == _fresh:
                return copy.deepcopy(measured(_name))
            return _first.point(**coords)

        monkeypatch.setitem(SWEEPS, name, dataclasses.replace(
            sweep, tables=(dataclasses.replace(first, point=point), *rest)))


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
        """On the grid, and re-measured here equal to the point the
        committed file recorded in another process."""
        sweep = SWEEPS[name]
        assert sweep.fresh in sweep.tables[0].grid()
        assert measured(name) == committed(name)["points"][fresh_index(name)]

    def test_committed_file_passes_the_check(self, name):
        assert check_sweep(SWEEPS[name], committed(name)) == []

    def test_committed_file_records_the_acceptance_points(self, name):
        """The sweep's acceptance rules alone, with no re-measurement."""
        assert SWEEPS[name].rules(committed(name)) == []

    def test_fresh_makespan_off_by_one_ns_fails(self, name):
        doc = committed(name)
        point = doc["points"][fresh_index(name)]
        key = next(k for k in point if k.endswith("_ns"))
        if isinstance(point[key], dict):  # per-algorithm makespans
            point[key][next(iter(point[key]))] += 1.0
        else:
            point[key] += 1.0
        assert any("fresh point" in p for p in check_sweep(SWEEPS[name], doc))

    def test_dropped_point_fails(self, name):
        doc = committed(name)
        del doc["points"][-1]
        assert any("grid" in p
                   for p in check_sweep(SWEEPS[name], doc))

    def test_missing_key_fails(self, name):
        doc = committed(name)
        del doc["points"][0][next(iter(SWEEPS[name].fresh))]
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


def _set_all(table, field, value):
    def breach(doc):
        for p in doc[table]:
            p[field] = value
    return breach


def _raise_8pe_per_pe(doc):
    doc["points"][-1]["mops_per_pe"] = doc["points"][-2]["mops_per_pe"]


def _slow_xbgas_put(doc):
    for p in doc["points"]:
        p["put_ns"]["xbgas"] = p["put_ns"]["mpi"] + 1


def _slow_scattered_hierarchy(doc):
    doc["points"][-1]["makespans_ns"]["hierarchical"] = 1e9


def _many_doubling_barriers(doc):
    for p in doc["points"]:
        p["barriers"]["doubling"] = 99


@pytest.mark.parametrize("name, breach, message", [
    ("fig4", _set_all("points", "verified", False), "verification failed"),
    ("fig5", _raise_8pe_per_pe, "8-PE per-PE drop only"),
    ("transport", _slow_xbgas_put, "put: xbgas < rdma < mpi"),
    ("unroll", _set_all("points", "isa_instructions", 1),
     "fewer instructions than rolled"),
    ("topology", _set_all("halving", "inter_node_edges", 5),
     "crossing edges"),
    ("locality", _slow_scattered_hierarchy,
     "scattered: hierarchical beats flat"),
    ("amo", _set_all("points", "errors", 5), "verifies with 0 errors"),
    ("allreduce_scan", _many_doubling_barriers,
     "doubling barriers < composed"),
], ids=PAPER)
def test_paper_claim_breach_fails(name, breach, message):
    """Each record's rules hold the claim its section makes."""
    doc = committed(name)
    breach(doc)
    assert any(message in p for p in SWEEPS[name].rules(doc))


@pytest.mark.parametrize("name", ["fig4", "fig5"])
def test_latency_mutation_fails_the_figures(name, monkeypatch):
    """An L2 hit latency 1e-3 ns off moves the fresh point: the check is
    exact, not a tolerance."""
    original = paper.MachineConfig

    def mutated(**kw):
        cfg = original(**kw)
        l2 = dataclasses.replace(cfg.mem.l2, hit_ns=cfg.mem.l2.hit_ns + 1e-3)
        return cfg.with_(mem=dataclasses.replace(cfg.mem, l2=l2))

    monkeypatch.setattr(paper, "MachineConfig", mutated)
    problems = check_sweep(_REGISTRY[name], committed(name))
    assert any("fresh point" in p for p in problems)


@pytest.mark.parametrize("name", PAPER)
def test_experiments_quotes_the_committed_tables(name):
    """EXPERIMENTS.md shows each record's tables exactly as the committed
    file renders them (every number, rounded as printed), and says how
    to regenerate it."""
    text = (_ROOT / "EXPERIMENTS.md").read_text()
    assert render_sweep(SWEEPS[name], committed(name)) in text
    assert f"python -m repro.bench.sweeps --write {name}`" in text


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
