#!/usr/bin/env python3
"""The repo benchmark: six host-time workloads, measured end to end and,
with tracing on, layer by layer.  ``BENCHMARK.json`` at the repo root is
the contract; this file is its ``command``.

One workload, as the driver calls it (the last stdout line is the
result object)::

    python3 bench_e2e/run.py --workload gups_sim --seed 1 --seconds 10 --trace 0

Every workload, with a table of every metric and one result file::

    python3 bench_e2e/run.py --seed 1 [--traced] [--out results.json]

Each measurement runs in fresh subprocesses of this script (``--phase``),
so imports, compile caches and peak memory are per workload.  A
``--trace 0`` result pools ``PROCESSES`` of them, each setting up from
scratch and measuring for its share of ``--seconds``, and reports the
first quartile over all their repetitions (of the set-up time, over the
processes): host noise only adds time, and pooling processes takes out
the differences that belong to one process (memory layout) and not to
the code.  The two clocks never mix: ``wall_s``,
``cpu_s`` and ``job_*`` are host time, ``model_ns`` is simulated time.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Subprocesses pooled into one ``--trace 0`` result.
PROCESSES = 3
#: Timed repetitions each of them makes at least.
MIN_REPS = 2
#: ``job_p99_ms`` is the 99th percentile of a repetition's jobs when it
#: timed enough of them, else the highest percentile (not below the
#: median) that still has this many samples beyond it.
TAIL_SAMPLES = 10
#: Share of ``--seconds`` a ``--trace 1`` run spends untraced (the base
#: of ``trace.overhead_frac``) and traced; probes take what is left.
TRACE_SPLIT = (0.35, 0.35)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# the measuring subprocess
# --------------------------------------------------------------------------

def _cpu_now(workloads) -> float:
    """user+sys CPU seconds of this process and its live children."""
    return time.process_time() + workloads.children_cpu_s()


def _peak_rss_mb(workloads) -> float:
    """High-water RSS of this process plus the private resident memory of
    its live children, MiB."""
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss_kib / 1024 + workloads.children_rss_mb()


def _timed_rep(workloads, wl, index: int) -> dict:
    gc.collect()
    cpu0 = _cpu_now(workloads)
    t0 = time.perf_counter()
    rep = wl.rep(index)
    wall = time.perf_counter() - t0
    return {"wall": wall, "cpu": _cpu_now(workloads) - cpu0, "rep": rep,
            "peak_rss_mb": _peak_rss_mb(workloads)}


def _plain(rep: dict) -> dict:
    """A repetition as the parent reads it (JSON), with the latency
    percentiles of its jobs in place of the samples.  Where a repetition
    is one run of a kernel or a grid, that run is its one job."""
    from repro.serve.stats import percentile

    r = rep["rep"]
    jobs = r.job_ms or [rep["wall"] * 1e3]
    tail_q = min(0.99, max(0.5, 1 - TAIL_SAMPLES / len(jobs)))
    return {"wall": rep["wall"], "cpu": rep["cpu"],
            "peak_rss_mb": rep["peak_rss_mb"], "ops": r.ops,
            "checks": r.checks, "failed": r.failed, "model_ns": r.model_ns,
            "jobs": len(jobs), "job_tail_quantile": tail_q,
            "job_p50_ms": percentile(jobs, 50),
            "job_tail_ms": percentile(jobs, 100 * tail_q)}


def _rep_loop(rep_fn, first_index: int, budget_s: float,
              min_reps: int) -> list[dict]:
    """``rep_fn(index)`` for about ``budget_s``: one more repetition runs
    only if at least half of it still fits."""
    reps: list[dict] = []
    begin = time.perf_counter()
    while True:
        reps.append(rep_fn(first_index + len(reps)))
        typical = statistics.median(r["wall"] for r in reps)
        spent = time.perf_counter() - begin
        if len(reps) >= min_reps and spent + typical / 2 > budget_s:
            return reps


def _undisturbed(values) -> float:
    """The first quartile: host noise on a shared machine only ever adds
    time, and comes in bursts that can cover half the repetitions of a
    run, which moves their median; the quartile holds as long as a
    quarter of them ran undisturbed."""
    values = sorted(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4)[0]


def end_to_end(children: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics pooled over the measuring subprocesses, and the
    sample counts behind them.  Every host-time statistic is taken per
    repetition and the first quartile over repetitions reported."""
    reps = [r for child in children for r in child["reps"]]

    def over_reps(key: str) -> float:
        return _undisturbed(r[key] for r in reps)

    metrics = {
        "setup_s": _undisturbed(c["setup_s"] for c in children),
        "wall_s": over_reps("wall"),
        "cpu_s": over_reps("cpu"),
        "model_ns": reps[0]["model_ns"],
        # High-water mark through each process's first timed repetition:
        # later ones only add what the compile caches retain, and how
        # many fit in the budget varies from run to run.
        "peak_rss_mb": statistics.median(
            c["reps"][0]["peak_rss_mb"] for c in children),
        "job_p50_ms": over_reps("job_p50_ms"),
        "job_p99_ms": over_reps("job_tail_ms"),
    }
    counts = {"processes": len(children), "reps": len(reps),
              "jobs_per_rep": reps[0]["jobs"],
              "job_tail_quantile": reps[0]["job_tail_quantile"],
              "ops_per_rep": reps[0]["ops"],
              "setup_samples": [c["setup_s"] for c in children]}
    return metrics, counts


def _layer_metrics(untraced: list[dict], traced: list[dict],
                   probe: dict) -> dict:
    """Per-layer metrics of one workload.  Counts come from the first
    traced repetition (they repeat exactly), times are medians."""
    def med(fn) -> float:
        return statistics.median(fn(t) for t in traced)

    first = traced[0]
    out: dict[str, float] = dict(probe)
    for layer in ("memsys", "network", "transfer", "barrier", "lint",
                  "evaluate"):
        out[f"{layer}.calls"] = first["layers"][layer]["calls"]
        out[f"{layer}.self_s"] = med(lambda t: t["layers"][layer]["self_s"])
    wall = med(lambda t: t["wall"])
    base = statistics.median(r["wall"] for r in untraced)
    out["trace.wall_s"] = wall
    out["trace.overhead_frac"] = wall / base - 1
    out["trace.unattributed_frac"] = 1 - med(
        lambda t: sum(row["self_s"] for layer, row in t["layers"].items()
                      if layer not in ("engine", "machine")) / t["wall"])

    out["engine.calls"] = first["layers"]["engine"]["calls"]
    out["engine.switches"] = first["switches"]
    if "engine.switch_us" in probe:
        out["engine.handoff_share"] = (
            first["switches"] * probe["engine.switch_us"] * 1e-6 / base)
    if first["layers"]["memsys"]["calls"]:
        out["memsys.us_per_call"] = (out["memsys.self_s"] * 1e6
                                     / first["layers"]["memsys"]["calls"])

    stats = first["stats"]
    if stats:
        def total(field: str) -> float:
            return sum(getattr(s, field) for s in stats)

        l1 = total("l1_hits") + total("l1_misses")
        tlb = total("tlb_hits") + total("tlb_misses")
        out["memsys.l1_miss_frac"] = total("l1_misses") / l1 if l1 else 0.0
        out["memsys.tlb_miss_frac"] = total("tlb_misses") / tlb if tlb else 0.0
        out["network.messages"] = total("messages")
        out["network.bytes_on_wire"] = total("bytes_on_wire")
        out["network.fabric_queued_ns"] = total("fabric_queued_ns")
        out["transfer.puts"] = total("puts")
        out["transfer.gets"] = total("gets")

    collectives = first["layers"]["executor"]["calls"]
    out["executor.collectives"] = collectives
    out["executor.self_s"] = med(lambda t: t["layers"]["executor"]["self_s"])
    if collectives:
        out["executor.us_per_collective"] = (
            out["executor.self_s"] * 1e6 / collectives)

    out["compile.calls"] = first["layers"]["compile"]["calls"]
    out["compile.cold_s"] = med(lambda t: t["compile_cold_s"])
    counts = first["rep"].counts
    out.update(counts)
    if counts.get("lint.steps"):
        out["lint.us_per_step"] = out["lint.self_s"] * 1e6 / counts["lint.steps"]
    if counts.get("compile.steps"):
        out["evaluate.us_per_step"] = (
            (out["evaluate.self_s"] - counts["evaluate.data_s"]) * 1e6
            / counts["compile.steps"])

    submit = first["callables"].get("ServePool.submit")
    if submit and submit["calls"]:
        out["serve.submit_us"] = med(
            lambda t: t["callables"]["ServePool.submit"]["self_s"]
        ) * 1e6 / submit["calls"]
    for key in counts:
        if key.startswith("serve.") and key != "serve.rejected":
            out[key] = med(lambda t: t["rep"].counts[key])
    return out


def _run_probes(name: str, seed: int, quick: bool, pinned: set[int] | None,
                all_cpus: set[int]) -> dict:
    """The short probes that belong to this workload's layers."""
    import probes

    out: dict[str, float] = {}
    if name in ("gups_sim", "is_sim", "coll_small_sim"):
        out["engine.switch_us"] = probes.engine_switch_us(quick)
        out["machine.run_overhead_ms"] = probes.machine_run_overhead_ms(quick)
        out["memsys.scalar_ns_per_access"] = \
            probes.memsys_scalar_ns_per_access(quick)
        out["memsys.bulk_ns_per_line"] = probes.memsys_bulk_ns_per_line(quick)
    if name in ("coll_small_sim", "plan_scale"):
        out["compile.hit_us"] = probes.compile_hit_us(quick)
    if name == "plan_scale":
        out["evaluate.vs_sim_err_max"] = probes.evaluate_vs_sim_err_max()
    if name == "gups_sim" and not quick:
        out["engine.unpinned_wall_ratio"] = probes.unpinned_wall_ratio(
            seed, pinned, all_cpus)
    if name == "coll_small_sim":
        out.update(probes.backends(seed, pinned, all_cpus, quick))
    return out


def phase_main(args) -> int:
    """Body of the measuring subprocess; prints one JSON line."""
    if not (SRC / "repro").is_dir():
        print(f"bench_e2e: no product source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    all_cpus = os.sched_getaffinity(0)
    pinned = None
    if cls.pinned:
        # PE threads are cooperative: unpinned, the OS migrates every
        # handoff and the same run takes 2-4x longer, erratically.
        pinned = {max(all_cpus)}
        os.sched_setaffinity(0, pinned)

    wl = cls(args.seed, quick=args.quick)
    try:
        _timed_rep(workloads, wl, -1)      # untimed warm-up repetition
        setup_s = time.monotonic() - args.spawned_at

        tracing = args.phase == "trace"
        min_reps = 1 if args.quick or tracing else MIN_REPS
        budget = args.seconds * (TRACE_SPLIT[0] if tracing else 1.0)
        untraced = _rep_loop(lambda i: _timed_rep(workloads, wl, i),
                             0, budget, min_reps)
        doc = {
            "setup_s": setup_s,
            "reps": [_plain(r) for r in untraced],
            "op": cls.op_name,
            "affinity": sorted(pinned) if pinned else None,
        }
        if tracing:
            import trace as trace_mod

            wl.tracing = True

            def traced_rep(index: int) -> dict:
                keep = bool(args.trace_out) and index == len(untraced)
                with trace_mod.Tracer(keep_spans=keep) as tracer:
                    out = _timed_rep(workloads, wl, index)
                if keep:
                    tracer.write_chrome_trace(args.trace_out)
                out.update(layers=tracer.layers(),
                           callables=tracer.callables(),
                           switches=tracer.switches,
                           compile_cold_s=tracer.compile_cold_s,
                           stats=tracer.machine_stats)
                return out

            traced = _rep_loop(traced_rep, len(untraced),
                               args.seconds * TRACE_SPLIT[1], 1)
            probe = _run_probes(args.workload, args.seed, args.quick,
                                pinned, all_cpus)
            doc["per_layer"] = _layer_metrics(untraced, traced, probe)
            doc["callables"] = traced[0]["callables"]
            doc["traced_reps"] = [_plain(t) for t in traced]
        print(json.dumps(doc))
        return 0
    finally:
        wl.close()


# --------------------------------------------------------------------------
# the parent: spawns the phases, shapes the result
# --------------------------------------------------------------------------

def _spawn(phase: str, workload: str, seed: int, seconds: float,
           quick: bool, trace_out: str | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--phase", phase,
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds),
           "--spawned-at", repr(time.monotonic())]
    if quick:
        cmd.append("--quick")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    # One hash seed for every subprocess: string hashing then costs the
    # same in each, which is one less difference between processes.
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          env={**os.environ, "PYTHONHASHSEED": "0"})
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload}: {phase} phase exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(spec: dict, workload: str, seed: int, seconds: float, trace: bool,
            quick: bool = False, trace_out: str | None = None) -> dict:
    """One run of one workload, shaped like the driver's result object:
    ``correct``/``attempted``/``failed`` plus ``end_to_end`` metrics and,
    when tracing, ``per_layer`` metrics, each value with its unit."""
    if trace:
        children = [_spawn("trace", workload, seed, seconds, quick,
                           trace_out)]
    else:
        n = 1 if quick else PROCESSES
        children = [_spawn("measure", workload, seed, seconds / n, quick)
                    for _ in range(n)]
    values, counts = end_to_end(children)
    checked = [r for c in children
               for r in c["reps"] + c.get("traced_reps", [])]
    failed = sum(r["failed"] for r in checked)
    result = {
        "correct": failed == 0,
        "attempted": sum(r["checks"] for r in checked),
        "failed": failed,
        "end_to_end": {m["name"]: {"value": values[m["name"]],
                                   "unit": m["unit"]}
                       for m in spec["end_to_end"]},
        "info": {**counts, "op": children[0]["op"],
                 "affinity": children[0]["affinity"]},
    }
    if trace:
        layers = children[0]["per_layer"]
        # A layer this workload does not reach, or that runs in another
        # process where the wrappers cannot see it, reads 0.
        result["per_layer"] = {
            m["name"]: {"value": layers.get(m["name"], 0.0),
                        "unit": m["unit"]}
            for m in spec["per_layer"]}
        result["measured"] = sorted(set(layers) & set(result["per_layer"]))
        result["callables"] = children[0]["callables"]
    return result


def _print_table(title: str, kind: str, results: dict) -> None:
    print(f"\n{title}")
    for workload, res in results.items():
        for name, m in res[kind].items():
            if kind == "per_layer" and name not in res["measured"]:
                continue
            print(f"  {workload:<15} {name:<28} {m['value']:>16.6g} {m['unit']}")
        print(f"  {workload:<15} {'fail_frac':<28} "
              f"{res['failed'] / res['attempted']:>16.6g} fraction "
              f"({res['failed']}/{res['attempted']} checks)")


def run_all(args, spec: dict) -> int:
    """Every workload in turn; tables on stdout, one JSON result file."""
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else (
        0.2 if args.quick else spec["run_seconds"])
    doc = {
        "benchmark": "bench_e2e", "seed": args.seed, "seconds": seconds,
        "quick": args.quick,
        "host": {"platform": platform.platform(),
                 "python": platform.python_version(),
                 "cpus": sorted(os.sched_getaffinity(0))},
        "untraced": {}, "traced": {},
    }
    # End-to-end numbers come from the untraced runs only.  The self-test
    # (--quick --traced) skips them and reads the traced subprocess's own
    # short untraced phase, to stay one subprocess per workload.
    if not (args.quick and args.traced):
        for name in names:
            doc["untraced"][name] = measure(spec, name, args.seed, seconds,
                                            False, args.quick)
    if args.traced:
        for name in names:
            trace_out = None
            if args.trace_out:
                os.makedirs(args.trace_out, exist_ok=True)
                trace_out = os.path.join(args.trace_out,
                                         f"{name}.trace.json")
            doc["traced"][name] = measure(spec, name, args.seed, seconds,
                                          True, args.quick, trace_out)
    _print_table("end-to-end (untraced repetitions)", "end_to_end",
                 doc["untraced"] or doc["traced"])
    if args.traced:
        _print_table("per-layer (traced repetitions and probes)",
                     "per_layer", doc["traced"])
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"\nwrote {args.out}")
    failed = sum(res["failed"] for kind in ("untraced", "traced")
                 for res in doc[kind].values())
    if failed:
        print(f"FAILED: {failed} output checks failed", file=sys.stderr)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload only and "
                        "print the driver's result object")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 = per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="without --workload: add the traced pass")
    parser.add_argument("--quick", action="store_true",
                        help="toy sizes, for the self-test only")
    parser.add_argument("--out", help="without --workload: result file")
    parser.add_argument("--trace-out", help="without --workload: directory "
                        "for one Chrome trace per workload (first traced "
                        "repetition)")
    parser.add_argument("--phase", choices=("measure", "trace"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.phase:
        sys.path.insert(0, str(HERE))
        return phase_main(args)

    spec = load_spec()
    if not (SRC / "repro").is_dir():
        print(f"bench_e2e: no product source at {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    result = measure(spec, args.workload, args.seed, seconds,
                     bool(args.trace), args.quick)
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["per_layer" if args.trace else "end_to_end"],
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
