"""Model-time sweeps: the committed ``BENCH_*.json`` files, one registry.

Four records are priced by the cost-only schedule evaluator (the
mailbox queue-depth curve by the cooperative simulator): ``vec``
(broadcast/allreduce algorithm crossovers at 64–4096 PEs against the
tuning layer's picks),
``pipeline`` (the dual-root pipelined allreduce against ring and
Rabenseifner), ``batch`` (K eager small allreduces against one widened
superstep flush, and K calls of every other family against one fused
flush) and ``mailbox`` (two-sided overhead over one-sided,
and the receive-queue-depth curve).  Ring and linear schedules are
Θ(N²) / Θ(N) root-serialised steps, so the sweeps stop them at
``RING_MAX_PES`` / ``LINEAR_MAX_PES`` and record the caps.  The paper's
figures and ablations, run on the simulator, register from
:mod:`repro.bench.paper`.

Model time is deterministic, so a file is a pure function of the code.
``--write`` regenerates it.  The default checks it: the document is the
one the registry assembles from its points (bench key, grid, metadata,
summary), every grid point is present with its keys, the sweep's
acceptance rules hold, and one fresh point, re-measured, **equals** the
committed one — any drift in the cost model or the tuning picks fails.
Host time has its own home, ``bench_e2e/``::

    python -m repro.bench.sweeps                # check every file
    python -m repro.bench.sweeps fig4 fig5      # check the paper's figures
    python -m repro.bench.sweeps --write vec    # regenerate BENCH_vec.json

Files are read from and written to the current directory.  ``--write``
prints the markdown tables EXPERIMENTS.md quotes (:func:`render_sweep`).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ..collectives.allreduce import auto_segments, compile_allreduce
from ..collectives.broadcast import compile_broadcast
from ..collectives.schedule.evaluate import evaluate_schedule
from ..collectives.schedule.fuse import (
    WIDENABLE, compile_widened, fuse_schedules)
from ..collectives.schedule.mailbox import lower_to_mailbox, max_fan_in
from ..collectives.schedule.registry import BUILTIN_ALGORITHMS, _shapes_for
from ..collectives.tuning import select_algorithm
from ..params import MachineConfig, MailboxParams

__all__ = [
    "RING_MAX_PES",
    "LINEAR_MAX_PES",
    "Axis",
    "Table",
    "Sweep",
    "SWEEPS",
    "vec_point",
    "pipeline_point",
    "batch_point",
    "family_point",
    "mailbox_point",
    "depth_point",
    "run_sweep",
    "check_sweep",
    "render_sweep",
    "main",
]

#: Ring schedules are Θ(N²) steps; past this the compile cost dwarfs
#: anything the curve could teach.  A tuning pick past its cap is
#: recorded unjudged (``tuning_within_1p25x`` is None).
RING_MAX_PES = 512

#: The linear broadcast serialises N-1 root sends; one tier further.
LINEAR_MAX_PES = 1024

_ITEMSIZE = 8
_INT64 = np.dtype(np.int64)

_CONFIG = {"cores_per_node": 1, "topology": "fully-connected",
           "itemsize": _ITEMSIZE, "dtype": "int64"}


# -- points ----------------------------------------------------------------


def _config(n_pes: int, **kw) -> MachineConfig:
    """One PE per node, matching the A1 ablation topology."""
    return MachineConfig(n_pes=n_pes, cores_per_node=1, **kw)


def _makespan(sched, n_pes: int) -> float:
    return evaluate_schedule(sched, _config(n_pes), dtype=_INT64,
                             collect_data=False).elapsed_ns


def _allreduce(n_pes: int, nelems: int, algorithm: str):
    return compile_allreduce(n_pes, nelems, 1, _ITEMSIZE, "sum",
                             algorithm=algorithm)


def _capped(algorithm: str, n_pes: int) -> bool:
    return ((algorithm == "ring" and n_pes > RING_MAX_PES)
            or (algorithm == "linear" and n_pes > LINEAR_MAX_PES))


def _tuning(collective: str, nbytes: int, n_pes: int,
            makespans: dict[str, float]) -> dict:
    """The measured winner against the tuning layer's pick."""
    winner = min(makespans, key=makespans.get)
    pick = select_algorithm(collective, nbytes, n_pes)
    return {
        "winner": winner,
        "tuning_pick": pick,
        "tuning_pick_measured": pick in makespans,
        "tuning_within_1p25x": (
            makespans[pick] <= 1.25 * makespans[winner]
            if pick in makespans else None
        ),
    }


_VEC_ALGOS = {
    "broadcast": ("binomial", "linear", "ring"),
    "allreduce": ("doubling", "rabenseifner", "ring"),
}


def vec_point(collective: str, n_pes: int, nelems: int) -> dict:
    """Makespans of every uncapped algorithm of one collective."""
    makespans = {}
    for algorithm in _VEC_ALGOS[collective]:
        if _capped(algorithm, n_pes):
            continue
        if collective == "broadcast":
            sched = compile_broadcast(n_pes, 0, nelems, 1, _ITEMSIZE,
                                      algorithm=algorithm)
        else:
            sched = _allreduce(n_pes, nelems, algorithm)
        makespans[algorithm] = _makespan(sched, n_pes)
    nbytes = nelems * _ITEMSIZE
    return {"collective": collective, "n_pes": n_pes, "nelems": nelems,
            "nbytes": nbytes, "makespans_ns": makespans,
            **_tuning(collective, nbytes, n_pes, makespans)}


def pipeline_point(n_pes: int, nelems: int) -> dict:
    """Ring, Rabenseifner and dual-pipelined allreduce, with ratios."""
    makespans = {a: _makespan(_allreduce(n_pes, nelems, a), n_pes)
                 for a in ("ring", "rabenseifner", "dual-pipelined")
                 if not _capped(a, n_pes)}
    dual = makespans["dual-pipelined"]
    nbytes = nelems * _ITEMSIZE
    return {
        "n_pes": n_pes,
        "nelems": nelems,
        "nbytes": nbytes,
        "segments": auto_segments(nbytes),
        "makespans_ns": makespans,
        "ring_over_dual": (round(makespans["ring"] / dual, 3)
                           if "ring" in makespans else None),
        "rabenseifner_over_dual": round(makespans["rabenseifner"] / dual, 3),
        **_tuning("allreduce", nbytes, n_pes, makespans),
    }


def batch_point(n_pes: int, nelems: int, batch: int) -> dict:
    """K eager doubling allreduces against one widened flush of them."""
    eager = _makespan(_allreduce(n_pes, nelems, "doubling"), n_pes) * batch
    fused = _makespan(compile_widened("allreduce", "doubling", n_pes, 0,
                                      "sum", _ITEMSIZE, (nelems,) * batch),
                      n_pes)
    return {"n_pes": n_pes, "nelems": nelems, "nbytes": nelems * _ITEMSIZE,
            "batch": batch, "eager_ns": eager, "superstep_ns": fused,
            "speedup": round(eager / fused, 3)}


#: The builtin families a superstep fuses but cannot widen (the
#: hierarchical ones synchronise node by node and never fuse).
BATCH_FAMILIES = tuple(f"{c}:{a}" for c, a in BUILTIN_ALGORITHMS
                       if (c, a) not in WIDENABLE and c != "superstep"
                       and a != "hierarchical")


def family_point(family: str, n_pes: int) -> dict:
    """K = 8 eager calls of one family (8 elements per PE) against one
    fused flush of them."""
    batch = 8
    sched = next(sched for label, sched in _shapes_for(
        *family.split(":"), n_pes, 8, _ITEMSIZE)
        if "ragged" not in label and not label.endswith("=0"))
    eager = _makespan(sched, n_pes) * batch
    fused = _makespan(fuse_schedules((sched,) * batch), n_pes)
    return {"family": family, "n_pes": n_pes, "batch": batch,
            "eager_ns": eager, "superstep_ns": fused,
            "ratio": round(fused / eager, 3)}


def mailbox_point(n_pes: int, nelems: int) -> dict:
    """One-sided against mailbox-lowered doubling allreduce.  The
    overhead can fall below 1.0: eager pushes overlap where gets
    round-trip on the getter's critical path."""
    sched = _allreduce(n_pes, nelems, "doubling")
    lowered = lower_to_mailbox(sched)
    base = _makespan(sched, n_pes)
    two = evaluate_schedule(lowered, _config(n_pes), dtype=_INT64,
                            collect_data=False)
    return {
        "n_pes": n_pes,
        "nelems": nelems,
        "nbytes": nelems * _ITEMSIZE,
        "onesided_ns": base,
        "mailbox_ns": two.elapsed_ns,
        "overhead": round(two.elapsed_ns / base, 3),
        "max_fan_in": max_fan_in(lowered),
        "sends": int(two.stats.sends),
        "wire_bytes": int(two.stats.bytes_sent),
    }


#: The depth curve's fixed shape: 8 PEs x 1024 elements.
DEPTH_PES = 8
DEPTH_NELEMS = 1024


def _depth_workload(ctx):
    ctx.init()
    src = ctx.malloc(_ITEMSIZE * DEPTH_NELEMS)
    dest = ctx.malloc(_ITEMSIZE * DEPTH_NELEMS)
    ctx.view(src, "long", DEPTH_NELEMS)[:] = ctx.my_pe()
    t0 = ctx.time_ns
    ctx.allreduce(dest, src, DEPTH_NELEMS, 1, algorithm="doubling")
    dt = ctx.time_ns - t0
    ctx.close()
    return dt


def depth_point(recv_depth: int) -> dict:
    """The lowered allreduce on the simulator at one receive-queue
    depth.  The builtins are phase-matched, so even depth 1 completes."""
    from ..runtime.context import Machine

    machine = Machine(_config(DEPTH_PES,
                              mailbox=MailboxParams(recv_depth=recv_depth)),
                      transport="mailbox")
    elapsed = max(machine.run(_depth_workload))
    return {"recv_depth": recv_depth, "elapsed_ns": elapsed,
            "stalls": int(machine.stats.mbx_stalls),
            "sends": int(machine.stats.sends)}


# -- acceptance rules over committed points --------------------------------


def _caps_hold(doc: dict) -> list[str]:
    return [f"({p['n_pes']} PEs, {p['nbytes']} B): {a} measured past its cap"
            for p in doc["points"] for a in p["makespans_ns"]
            if _capped(a, p["n_pes"])]


def _tuning_fraction(tables: dict) -> dict:
    judged = [p["tuning_within_1p25x"] for p in tables["points"]
              if p["tuning_within_1p25x"] is not None]
    return {"tuning_within_1p25x_fraction":
            sum(judged) / len(judged) if judged else None}


_PIPELINE_ACCEPT = {"min_pes": 16, "min_bytes": 64 * 1024,
                    "ring_over_dual_min": 1.3}


def _pipeline_rules(doc: dict) -> list[str]:
    """The 1.3x bar somewhere; tuning honest where it picks the new
    algorithm, and within 1.25x of the best at >= 90% of points (the
    byte-count-free policy cannot see payload-dependent crossovers)."""
    bar = _PIPELINE_ACCEPT
    problems = _caps_hold(doc)
    if not any(p["n_pes"] >= bar["min_pes"]
               and p["nbytes"] >= bar["min_bytes"]
               and (p["ring_over_dual"] or 0) >= bar["ring_over_dual_min"]
               for p in doc["points"]):
        problems.append(
            f"no point with >= {bar['min_pes']} PEs, >= {bar['min_bytes']} "
            f"B and ring/dual >= {bar['ring_over_dual_min']}")
    problems += [
        f"tuning picks dual-pipelined at ({p['n_pes']} PEs, {p['nbytes']} "
        f"B) but it is over 1.25x the winner ({p['winner']})"
        for p in doc["points"] if p["tuning_pick"] == "dual-pipelined"
        and p["tuning_within_1p25x"] is False]
    frac = doc.get("tuning_within_1p25x_fraction")
    if frac is not None and frac < 0.9:
        problems.append(f"tuning pick within 1.25x of best at only "
                        f"{frac:.0%} of judged points (floor: 90%)")
    return problems


_BATCH_ACCEPT = {"min_batch": 8, "max_bytes": 4 * 1024, "speedup_min": 2.0}


def _batch_rules(doc: dict) -> list[str]:
    """The widening bar somewhere; a fused flush never slower than its
    eager calls."""
    bar = _BATCH_ACCEPT
    problems = [f"{p['family']} at {p['n_pes']} PEs: fused "
                f"{p['superstep_ns']} ns exceeds eager {p['eager_ns']} ns"
                for p in doc["families"]
                if p["superstep_ns"] > p["eager_ns"]]
    if not any(p["batch"] >= bar["min_batch"]
               and p["nbytes"] <= bar["max_bytes"]
               and p["speedup"] >= bar["speedup_min"]
               for p in doc["points"]):
        problems.append(
            f"no point with batch >= {bar['min_batch']}, <= "
            f"{bar['max_bytes']} B and speedup >= {bar['speedup_min']}")
    return problems


_MAILBOX_ACCEPT = {"overhead_max": 1.5, "depth_curve_stall_free_at_max": True}


def _mailbox_rules(doc: dict) -> list[str]:
    """Overhead under the ceiling and fan-in within the default queue;
    depth only helps, and the deepest queue never stalls."""
    ceiling = _MAILBOX_ACCEPT["overhead_max"]
    problems = []
    for p in doc["points"]:
        where = f"({p['n_pes']} PEs, {p['nbytes']} B)"
        if p["overhead"] > ceiling:
            problems.append(f"{where}: mailbox overhead {p['overhead']} "
                            f"exceeds the {ceiling}x ceiling")
        if p["max_fan_in"] > MailboxParams().recv_depth:
            problems.append(f"{where}: fan-in {p['max_fan_in']} exceeds "
                            "the default receive depth")
    stalls = [c["stalls"] for c in doc["depth_curve"]]
    if any(b > a for a, b in zip(stalls, stalls[1:])):
        problems.append(f"stalls increase with queue depth: {stalls}")
    if stalls and stalls[-1]:
        problems.append(f"deepest queue still stalls {stalls[-1]} times")
    elapsed = [c["elapsed_ns"] for c in doc["depth_curve"]]
    if elapsed and max(elapsed) > 1.25 * min(elapsed):
        problems.append("depth curve spans more than 1.25x in elapsed "
                        "time: backpressure distorts the schedule")
    return problems


# -- the registry ----------------------------------------------------------


class Axis(NamedTuple):
    """One grid dimension: the point key, its values, and the top-level
    list that records them (``None``: implied, not written)."""

    coord: str
    values: tuple
    doc_key: str | None


@dataclass(frozen=True)
class Table:
    """One list of points: the product of ``axes``, measured by
    ``point(**coords)``.  ``columns`` are ``(header, key path, format
    spec)``; their first path segments are the keys every point must
    carry."""

    key: str
    title: str
    axes: tuple[Axis, ...]
    point: Callable[..., dict]
    columns: tuple[tuple[str, str, str], ...]

    def grid(self) -> list[dict]:
        names = [a.coord for a in self.axes]
        return [dict(zip(names, combo))
                for combo in itertools.product(*(a.values for a in self.axes))]


@dataclass(frozen=True)
class Sweep:
    """One committed model-time file."""

    name: str
    file: str
    bench: str
    backend: str
    #: Fixed top-level blocks (``config`` / ``acceptance`` / ``caps``).
    meta: dict
    tables: tuple[Table, ...]
    rules: Callable[[dict], list[str]]
    #: Coordinates (in the first table) that ``check_sweep`` re-measures.
    fresh: dict
    #: Top-level fields derived from the tables, written after them.
    summary: Callable[[dict], dict] = lambda tables: {}


_MS = ",.0f"

SWEEPS: dict[str, Sweep] = {s.name: s for s in (
    Sweep(
        "vec", "BENCH_vec.json", "vec-crossover", "vec",
        meta={"config": _CONFIG, "caps": {
            "ring_max_pes": RING_MAX_PES, "linear_max_pes": LINEAR_MAX_PES,
            "note": "ring/linear schedules are Θ(N²)/Θ(N) root-serialised "
                    "steps; points past the caps are omitted, not slow"}},
        tables=(Table(
            "points", "algorithm crossovers: makespan (ns) by algorithm "
                      "(vec evaluator, 1 PE/node)",
            (Axis("collective", ("broadcast", "allreduce"), None),
             Axis("n_pes", (64, 256, 1024, 4096), "pe_counts"),
             Axis("nelems", (8, 512, 4096, 65536), "sizes")),
            vec_point,
            (("collective", "collective", ""), ("pes", "n_pes", ""),
             ("bytes", "nbytes", ""),
             *((a, f"makespans_ns.{a}", _MS)
               for a in ("binomial", "linear", "doubling", "rabenseifner",
                         "ring")),
             ("winner", "winner", ""), ("tuning", "tuning_pick", ""),
             ("<=1.25x", "tuning_within_1p25x", ""))),),
        rules=_caps_hold,
        fresh={"collective": "allreduce", "n_pes": 64, "nelems": 512},
        summary=_tuning_fraction),
    Sweep(
        "pipeline", "BENCH_pipeline.json", "pipeline-allreduce", "vec",
        meta={"config": _CONFIG, "acceptance": _PIPELINE_ACCEPT, "caps": {
            "ring_max_pes": RING_MAX_PES,
            "note": "ring allreduce is Θ(N²) root-serialised steps; "
                    "points past the cap are omitted, not slow"}},
        tables=(Table(
            "points", "pipelined allreduce: makespan (ns) by algorithm "
                      "(vec evaluator, 1 PE/node)",
            (Axis("n_pes", (16, 24, 33, 48, 64, 100, 256, 1024, 4096),
                  "pe_counts"),
             Axis("nelems", (8192, 32768, 131072), "sizes")),
            pipeline_point,
            (("pes", "n_pes", ""), ("bytes", "nbytes", ""),
             ("segs", "segments", ""),
             *((a, f"makespans_ns.{a}", _MS)
               for a in ("ring", "rabenseifner", "dual-pipelined")),
             ("ring/dual", "ring_over_dual", ".2f"),
             ("winner", "winner", ""), ("tuning", "tuning_pick", ""),
             ("<=1.25x", "tuning_within_1p25x", ""))),),
        rules=_pipeline_rules,
        fresh={"n_pes": 64, "nelems": 8192},
        summary=_tuning_fraction),
    Sweep(
        "batch", "BENCH_batch.json", "superstep-batch", "vec",
        meta={"config": {**_CONFIG, "algorithm": "doubling"},
              "acceptance": _BATCH_ACCEPT},
        tables=(Table(
            "points", "superstep batching: K eager allreduces vs one fused "
                      "flush (vec evaluator, 1 PE/node)",
            (Axis("n_pes", (8, 16, 64, 256, 1024), "pe_counts"),
             Axis("nelems", (8, 64, 512), "sizes"),
             Axis("batch", (8, 32), "batches")),
            batch_point,
            (("pes", "n_pes", ""), ("bytes", "nbytes", ""),
             ("K", "batch", ""), ("eager ns", "eager_ns", _MS),
             ("superstep ns", "superstep_ns", _MS),
             ("speedup", "speedup", ".2f"))),
            Table(
                "families", "every other family: K = 8 eager calls of 8 "
                            "elements per PE vs one fused flush (vec "
                            "evaluator, 1 PE/node)",
                (Axis("family", BATCH_FAMILIES, None),
                 Axis("n_pes", (8, 16, 64), None)),
                family_point,
                (("family", "family", ""), ("pes", "n_pes", ""),
                 ("K", "batch", ""), ("eager ns", "eager_ns", _MS),
                 ("superstep ns", "superstep_ns", _MS),
                 ("fused/eager", "ratio", ".3f")))),
        rules=_batch_rules,
        fresh={"n_pes": 16, "nelems": 64, "batch": 8}),
    Sweep(
        "mailbox", "BENCH_mailbox.json", "mailbox-transport", "vec+sim",
        meta={"config": {**_CONFIG, "algorithm": "doubling",
                         "mailbox_defaults": {
                             k: getattr(MailboxParams(), k)
                             for k in ("recv_depth", "header_bytes",
                                       "route_ns_per_hop", "match_ns")}},
              "acceptance": _MAILBOX_ACCEPT},
        tables=(
            Table("points", "mailbox transport: lowered vs one-sided "
                            "makespan (doubling allreduce, vec evaluator)",
                  (Axis("n_pes", (4, 8, 16, 64), "pe_counts"),
                   Axis("nelems", (64, 1024, 8192), "sizes")),
                  mailbox_point,
                  (("pes", "n_pes", ""), ("bytes", "nbytes", ""),
                   ("one-sided", "onesided_ns", ".0f"),
                   ("mailbox", "mailbox_ns", ".0f"),
                   ("overhead", "overhead", ".3f"),
                   ("fan-in", "max_fan_in", ""), ("sends", "sends", ""),
                   ("wire B", "wire_bytes", ""))),
            Table("depth_curve", f"queue-depth curve ({DEPTH_PES} PEs x "
                                 f"{DEPTH_NELEMS * _ITEMSIZE} B, "
                                 "cooperative simulator)",
                  (Axis("recv_depth", (1, 2, 4, 8, 64), "depths"),),
                  depth_point,
                  (("depth", "recv_depth", ""),
                   ("elapsed_ns", "elapsed_ns", ".0f"),
                   ("stalls", "stalls", ""), ("sends", "sends", "")))),
        rules=_mailbox_rules,
        fresh={"n_pes": 8, "nelems": 1024}),
)}


# -- one runner, one check, one printer ------------------------------------


def _assemble(sweep: Sweep, tables: dict, host) -> dict:
    doc = {"bench": sweep.bench, "backend": sweep.backend, "host": host,
           **sweep.meta}
    for table in sweep.tables:
        doc.update({a.doc_key: list(a.values)
                    for a in table.axes if a.doc_key})
    return {**doc, **tables, **sweep.summary(tables)}


def run_sweep(sweep: Sweep) -> dict:
    """Measure every grid point; returns the committed-file document."""
    import platform
    import sys

    tables = {t.key: [t.point(**c) for c in t.grid()] for t in sweep.tables}
    return _assemble(sweep, tables, {"platform": platform.platform(),
                                     "python": sys.version.split()[0]})


def check_sweep(sweep: Sweep, doc: dict) -> list[str]:
    """Problems with a committed document (empty: it passes)."""
    problems: list[str] = []
    tables = {}
    for table in sweep.tables:
        points = doc.get(table.key)
        if not isinstance(points, list):
            return [f"document has no {table.key!r} list"]
        tables[table.key] = points
        grid = table.grid()
        coords = [{k: p.get(k) for k in grid[0]} for p in points]
        if coords != grid:
            problems.append(
                f"{table.key}: {len(points)} points do not match the "
                f"registry's {len(grid)}-point grid")
        keys = set(grid[0]) | {path.split(".")[0]
                               for _, path, _ in table.columns}
        for i, p in enumerate(points):
            if keys - set(p):
                problems.append(f"{table.key}[{i}] missing keys: "
                                f"{sorted(keys - set(p))}")
    if problems:
        return problems
    expected = _assemble(sweep, tables, doc.get("host"))
    problems += [f"{k} is {doc.get(k)!r}, the registry says "
                 f"{expected.get(k)!r}"
                 for k in {**expected, **doc} if doc.get(k) != expected.get(k)]
    problems += sweep.rules(doc)
    first = sweep.tables[0]
    measured = first.point(**sweep.fresh)
    committed = tables[first.key][first.grid().index(sweep.fresh)]
    if measured != committed:
        problems.append(f"fresh point {sweep.fresh} re-measured as "
                        f"{measured}, committed as {committed}")
    return problems


def _cell(point: dict, path: str, spec: str) -> str:
    value = point
    for part in path.split("."):
        value = value.get(part) if isinstance(value, dict) else None
    return "—" if value is None else format(value, spec)


def render_sweep(sweep: Sweep, doc: dict) -> str:
    """Every table of ``doc`` as markdown, then the derived summary."""
    out = []
    for table in sweep.tables:
        out += [table.title, "",
                "| " + " | ".join(h for h, _, _ in table.columns) + " |",
                "|" + "---|" * len(table.columns)]
        out += ["| " + " | ".join(_cell(p, *col[1:]) for col in table.columns)
                + " |" for p in doc[table.key]]
        out.append("")
    out += [f"- {key}: {value}" for key, value in sweep.summary(doc).items()]
    return "\n".join(out).rstrip("\n")


def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.bench.sweeps [--write] [NAME ...]``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.bench.sweeps",
        description="Check (default) or regenerate the committed "
                    "model-time sweeps: " + ", ".join(
                        f"{s.name} ({s.file})" for s in SWEEPS.values()))
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="sweeps to check or write (default: all)")
    parser.add_argument("--write", action="store_true",
                        help="re-measure every point and rewrite the files")
    args = parser.parse_args(argv)
    unknown = set(args.names) - set(SWEEPS)
    if unknown:
        parser.error(f"unknown sweep(s) {sorted(unknown)}; "
                     f"choose from {sorted(SWEEPS)}")

    status = 0
    for sweep in (SWEEPS[n] for n in args.names or SWEEPS):
        if args.write:
            doc = run_sweep(sweep)
            print(render_sweep(sweep, doc))
            with open(sweep.file, "w") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
            print(f"wrote {sweep.file}")
            continue
        with open(sweep.file) as fh:
            problems = check_sweep(sweep, json.load(fh))
        for problem in problems:
            print(f"FAIL {sweep.file}: {problem}")
        if problems:
            status = 1
        else:
            print(f"{sweep.file}: ok — grid, metadata and acceptance hold; "
                  f"fresh point {sweep.fresh} re-measured identical")
    return status


# The paper's figures and ablations register themselves into SWEEPS.
from . import paper  # noqa: E402,F401

if __name__ == "__main__":
    # Under ``-m`` this file runs as ``__main__``, a second copy of the
    # module; paper.py registered into the imported one.
    from repro.bench import sweeps

    raise SystemExit(sweeps.main())
