"""Self-test of the benchmark harness (not of the product).

Run explicitly — pyproject's ``testpaths`` does not include this
directory::

    python -m pytest bench_e2e/tests -q

One ``--quick --traced`` run (toy sizes, one subprocess per workload,
well under 10 s) feeds most assertions.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
RUN = [sys.executable, str(BENCH / "run.py")]
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

sys.path.insert(0, str(ROOT / "src"))


def _load(name: str):
    """Import a benchmark file under a private name (``trace.py`` shares
    its name with a standard-library module)."""
    spec = importlib.util.spec_from_file_location(
        f"bench_e2e_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def quick(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("bench_e2e") / "quick.json"
    proc = subprocess.run(RUN + ["--quick", "--traced", "--seed", "3",
                                 "--out", str(out)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with open(out) as fh:
        doc = json.load(fh)
    doc["stdout"] = proc.stdout
    return doc


def _contract_run(*args: str) -> dict:
    proc = subprocess.run(RUN + ["--quick", "--seconds", "0.2", *args],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_named_metric_is_emitted_with_its_unit(spec, quick):
    for workload in (w["name"] for w in spec["workloads"]):
        res = quick["traced"][workload]
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        for kind in ("end_to_end", "per_layer"):
            assert set(res[kind]) == {m["name"] for m in spec[kind]}
            for m in spec[kind]:
                got = res[kind][m["name"]]
                assert got["unit"] == m["unit"]
                assert isinstance(got["value"], (int, float))
                # every metric is printed by name with its unit
                if kind == "end_to_end" or m["name"] in res["measured"]:
                    assert re.search(
                        rf"{workload}\s+{re.escape(m['name'])}\s+\S+\s+"
                        rf"{re.escape(m['unit'])}\n", quick["stdout"])
        for m in spec["end_to_end"]:
            assert res["end_to_end"][m["name"]]["value"] > 0


def test_names_are_plain(spec):
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for kind in ("end_to_end", "per_layer")
              for m in spec[kind]]
    assert all(NAME_RE.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert spec["paths"] == ["bench_e2e"]
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


def test_each_layer_is_seen_by_the_workload_built_for_it(quick):
    def value(workload: str, metric: str) -> float:
        return quick["traced"][workload]["per_layer"][metric]["value"]

    assert value("gups_sim", "engine.switches") > 0
    assert value("gups_sim", "transfer.gets") > 0
    assert value("gups_sim", "network.messages") > 0
    assert value("is_sim", "memsys.self_s") > 0
    assert value("coll_small_sim", "executor.collectives") > 0
    assert value("coll_small_sim", "barrier.calls") > 0
    assert value("coll_small_sim", "backend.mp.wall_s") > 0
    assert value("coll_small_sim", "mailbox.model_ratio") > 0
    assert value("plan_scale", "compile.steps") > 0
    assert value("plan_scale", "lint.self_s") > 0
    assert value("plan_scale", "evaluate.self_s") > 0
    assert value("plan_scale", "lint.issues") == 0
    for workload in ("serve_sat", "serve_solo"):
        assert value(workload, "serve.jobs_per_s") > 0
        assert value(workload, "serve.submit_us") > 0
        assert value(workload, "engine.switches") == 0  # other processes


def test_contract_mode_and_seeding(spec):
    a = _contract_run("--workload", "coll_small_sim", "--seed", "5",
                      "--trace", "0")
    assert set(a) == {"correct", "attempted", "failed", "metrics"}
    assert set(a["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert a["correct"] is True and a["failed"] == 0
    same = _contract_run("--workload", "coll_small_sim", "--seed", "5",
                         "--trace", "1")
    again = _contract_run("--workload", "coll_small_sim", "--seed", "5",
                          "--trace", "1")
    other = _contract_run("--workload", "coll_small_sim", "--seed", "6",
                          "--trace", "0")
    assert set(same["metrics"]) == {m["name"] for m in spec["per_layer"]}
    # the model clock and the counts repeat exactly at one seed ...
    for name in ("engine.switches", "memsys.calls", "transfer.puts",
                 "network.bytes_on_wire", "executor.collectives"):
        assert same["metrics"][name] == again["metrics"][name]
    # ... and another seed moves the model clock
    assert a["metrics"]["model_ns"] != other["metrics"]["model_ns"]


def test_wrappers_are_removed_after_tracing():
    trace = _load("trace")
    import importlib

    from repro.params import MachineConfig
    from repro.runtime.context import Machine

    def originals():
        out = {}
        for targets in trace.TARGETS.values():
            for modname, clsname, attrs in targets:
                owner = importlib.import_module(modname)
                if clsname is not None:
                    owner = getattr(owner, clsname)
                for attr in attrs:
                    out[(modname, clsname, attr)] = owner.__dict__[attr]
        return out

    def body(ctx):
        ctx.init()
        buf = ctx.malloc(64)
        ctx.broadcast(buf, buf, 8, 1, 0, dtype="int64")
        ctx.close()

    before = originals()
    with trace.Tracer() as tracer:
        during = originals()
        Machine(MachineConfig(n_pes=4)).run(body)
    after = originals()

    assert all(during[k] is not before[k] for k in before)
    assert all(after[k] is before[k] for k in before)
    layers = tracer.layers()
    assert layers["executor"]["calls"] == 4
    assert layers["barrier"]["calls"] > 0 and layers["transfer"]["calls"] > 0
    assert tracer.switches > 0
    assert len(tracer.machine_stats) == 1


def test_compare_flags_a_regression_and_passes_an_identical_pair(
        spec, quick, tmp_path, capsys):
    compare = _load("compare")
    base = {k: v for k, v in quick.items() if k != "stdout"}
    base["untraced"] = base["traced"]   # --quick --traced has one pass
    slow = copy.deepcopy(base)
    # a synthetic wall_s regression just past the bound (20 % when the
    # bound is a tenth; the bound is wider on the noisy reference host)
    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "wall_s")
    slow["untraced"]["gups_sim"]["end_to_end"]["wall_s"]["value"] *= \
        1 + 2 * bound
    paths = {}
    for name, doc in (("base", base), ("slow", slow)):
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)

    assert compare.main([paths["base"], paths["base"]]) == 0
    assert "regressed" not in capsys.readouterr().out
    assert compare.main([paths["base"], paths["slow"]]) == 1
    out = capsys.readouterr().out
    row = next(line for line in out.splitlines()
               if line.startswith("gups_sim"))
    assert f"regressed +{2 * bound:.1%}" in row
    assert out.count("regressed +") == 1
    # the other direction is an improvement, not a regression
    assert compare.main([paths["slow"], paths["base"]]) == 0


def test_verdicts_with_several_runs_per_side():
    verdict = _load("compare").verdict
    steady = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert verdict(steady, [x * 1.2 for x in steady], 0.1, "lower")[0] \
        == "regressed"
    assert verdict(steady, [x * 0.8 for x in steady], 0.1, "lower")[0] \
        == "improved"
    assert verdict(steady, steady, 0.1, "lower")[0] == "unchanged"
    noisy = [1.0, 1.3, 0.8, 1.2, 0.9]
    assert verdict(noisy, [x * 1.02 for x in noisy], 0.1, "lower")[0] \
        == "unresolved"
    assert verdict([100.0], [100.001], 0.05, "lower", 1e-6)[0] == "regressed"


def test_exits_nonzero_without_the_product_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench_e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench_e2e/run.py", "--workload", "gups_sim",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
