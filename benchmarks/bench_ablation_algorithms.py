"""A1 — Algorithm ablation (paper section 4.1).

"There is no universally optimal solution suited to every occasion":
sweeps broadcast payload size across the binomial tree, the pipelined
linear scheme and the ring, on 8 single-core nodes, and regenerates the
crossover data behind :mod:`repro.collectives.tuning`.

Since PR 4 the sweep also covers the schedule-compiled allreduce
algorithms (the binomial reduce+broadcast composition vs recursive
doubling vs Rabenseifner vs the segment-rotating ring) and allgather
(gather+broadcast tree vs dissemination), and records which algorithm
:mod:`repro.collectives.tuning` would pick at each point so the
selection thresholds stay measured rather than folklore.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.params import MachineConfig
from repro.runtime import Machine


def _ablation_config(n_pes: int = 8) -> MachineConfig:
    return MachineConfig(
        n_pes=n_pes,
        cores_per_node=1,
        memory_bytes_per_pe=16 * 1024 * 1024,
        symmetric_heap_bytes=8 * 1024 * 1024,
        collective_scratch_bytes=2 * 1024 * 1024,
    )


def broadcast_makespan(algorithm: str, nelems: int, n_pes: int = 8) -> float:
    """Simulated completion time of one broadcast (ns)."""
    cfg = MachineConfig(
        n_pes=n_pes,
        cores_per_node=1,
        memory_bytes_per_pe=16 * 1024 * 1024,
        symmetric_heap_bytes=8 * 1024 * 1024,
        collective_scratch_bytes=1024 * 1024,
    )

    def body(ctx):
        ctx.init()
        dest = ctx.malloc(8 * nelems)
        src = ctx.private_malloc(8 * nelems)
        ctx.barrier()
        t0 = ctx.pe.clock
        from repro.collectives.broadcast import broadcast

        broadcast(ctx, dest, src, nelems, 1, 0, np.dtype(np.int64),
                  algorithm=algorithm)
        ctx.barrier()
        dt = ctx.pe.clock - t0
        ctx.close()
        return dt

    return max(Machine(cfg).run(body))


SIZES = (8, 128, 2048, 16384, 131072)


def test_broadcast_algorithm_crossover(once, benchmark):
    def sweep():
        rows = {}
        for nelems in SIZES:
            rows[nelems] = {
                alg: broadcast_makespan(alg, nelems)
                for alg in ("binomial", "linear", "ring")
            }
        return rows

    rows = once(sweep)
    print("\nA1 — broadcast latency (ns) by algorithm, 8 nodes")
    print(f"{'elems':>8} {'binomial':>12} {'linear':>12} {'ring':>12}  winner")
    for nelems, r in rows.items():
        winner = min(r, key=r.get)
        print(f"{nelems:>8} {r['binomial']:>12.0f} {r['linear']:>12.0f} "
              f"{r['ring']:>12.0f}  {winner}")
        benchmark.extra_info[f"winner_{nelems}"] = winner
    # The motivating claim: the winner changes with the payload size —
    # pipelined linear small, binomial tree mid, pipelined ring large.
    winners = [min(rows[s], key=rows[s].get) for s in SIZES]
    assert winners[0] == "linear"
    assert "binomial" in winners
    assert winners[-1] == "ring"


def test_selection_layer_picks_measured_winners(once, benchmark):
    """`auto` must never be worse than 1.2x the best algorithm."""
    from repro.collectives.tuning import select_algorithm

    def check():
        worst_ratio = 1.0
        for nelems in (8, 2048, 131072):
            best = min(broadcast_makespan(a, nelems)
                       for a in ("binomial", "linear", "ring"))
            chosen = select_algorithm("broadcast", nelems * 8, 8)
            got = broadcast_makespan(chosen, nelems)
            worst_ratio = max(worst_ratio, got / best)
        return worst_ratio

    worst = once(check)
    benchmark.extra_info["auto_vs_best_worst_ratio"] = round(worst, 3)
    assert worst <= 1.2


def allreduce_makespan(algorithm: str, nelems: int, n_pes: int = 8) -> float:
    """Simulated completion time of one allreduce (ns).

    ``algorithm="composition"`` measures the legacy-style binomial
    reduce+broadcast pair; the rest are the compiled allreduce
    schedules.
    """
    def body(ctx):
        ctx.init()
        nbytes = max(8 * nelems, 16)
        dest = ctx.malloc(nbytes)
        src = ctx.malloc(nbytes)
        ctx.barrier()
        t0 = ctx.pe.clock
        if algorithm == "composition":
            from repro.collectives.broadcast import broadcast
            from repro.collectives.reduce import reduce

            reduce(ctx, dest, src, nelems, 1, 0, "sum", np.dtype(np.int64))
            broadcast(ctx, dest, dest, nelems, 1, 0, np.dtype(np.int64))
        else:
            from repro.collectives.allreduce import allreduce

            allreduce(ctx, dest, src, nelems, 1, "sum", np.dtype(np.int64),
                      algorithm=algorithm)
        ctx.barrier()
        dt = ctx.pe.clock - t0
        ctx.close()
        return dt

    return max(Machine(_ablation_config(n_pes)).run(body))


def allgather_makespan(algorithm: str, nelems_per_pe: int,
                       n_pes: int = 8) -> float:
    """Simulated completion time of one fixed-size allgather (ns)."""
    def body(ctx):
        ctx.init()
        dest = ctx.malloc(max(8 * nelems_per_pe * n_pes, 16))
        src = ctx.malloc(max(8 * nelems_per_pe, 16))
        ctx.barrier()
        t0 = ctx.pe.clock
        from repro.collectives.extra import fcollect

        fcollect(ctx, dest, src, nelems_per_pe, np.dtype(np.int64),
                 algorithm=algorithm)
        ctx.barrier()
        dt = ctx.pe.clock - t0
        ctx.close()
        return dt

    return max(Machine(_ablation_config(n_pes)).run(body))


ALLREDUCE_ALGOS = ("composition", "doubling", "rabenseifner", "ring",
                   "dual-pipelined")
ALLREDUCE_SIZES = (8, 512, 4096, 32768)


def test_allreduce_algorithm_crossover(once, benchmark):
    def sweep():
        rows = {}
        for n_pes in (6, 8):
            for nelems in ALLREDUCE_SIZES:
                rows[(n_pes, nelems)] = {
                    alg: allreduce_makespan(alg, nelems, n_pes)
                    for alg in ALLREDUCE_ALGOS
                }
        return rows

    from repro.collectives.tuning import select_algorithm

    rows = once(sweep)
    print("\nA1 — allreduce latency (ns) by algorithm")
    print(f"{'pes':>4} {'elems':>7} " +
          " ".join(f"{a:>13}" for a in ALLREDUCE_ALGOS) +
          "  winner / tuning pick")
    for (n_pes, nelems), r in rows.items():
        winner = min(r, key=r.get)
        pick = select_algorithm("allreduce", nelems * 8, n_pes)
        print(f"{n_pes:>4} {nelems:>7} " +
              " ".join(f"{r[a]:>13.0f}" for a in ALLREDUCE_ALGOS) +
              f"  {winner} / {pick}")
        benchmark.extra_info[f"winner_{n_pes}_{nelems}"] = winner
        benchmark.extra_info[f"tuning_{n_pes}_{nelems}"] = pick
        # tuning's pick only chooses among the compiled algorithms.
        assert r[pick] <= 1.25 * min(r[a] for a in ALLREDUCE_ALGOS
                                     if a != "composition")
    # The motivating claims: latency-bound small payloads favour the
    # log-depth schemes; bandwidth-bound large payloads favour
    # reduce-scatter — Rabenseifner at a power of two, the fold-free
    # ring elsewhere.
    assert min(rows[(8, 8)], key=rows[(8, 8)].get) in ("composition",
                                                       "doubling")
    assert min(rows[(8, 32768)], key=rows[(8, 32768)].get) == "rabenseifner"
    assert min(rows[(6, 32768)], key=rows[(6, 32768)].get) == "ring"


def test_allgather_algorithm_crossover(once, benchmark):
    sizes = (8, 512, 4096)

    def sweep():
        return {
            nelems: {
                alg: allgather_makespan(alg, nelems)
                for alg in ("tree", "dissemination", "pat")
            }
            for nelems in sizes
        }

    from repro.collectives.tuning import select_algorithm

    rows = once(sweep)
    print("\nA1 — allgather latency (ns) by algorithm, 8 nodes")
    print(f"{'elems/pe':>9} {'tree':>12} {'dissemination':>14} {'pat':>12}"
          "  winner / tuning pick")
    for nelems, r in rows.items():
        winner = min(r, key=r.get)
        pick = select_algorithm("allgather", nelems * 8, 8)
        print(f"{nelems:>9} {r['tree']:>12.0f} {r['dissemination']:>14.0f}"
              f" {r['pat']:>12.0f}  {winner} / {pick}")
        benchmark.extra_info[f"winner_{nelems}"] = winner
        benchmark.extra_info[f"tuning_{nelems}"] = pick
        assert r[pick] <= 1.25 * min(r.values())
    # The log-depth schemes beat the tree composition everywhere, and
    # PAT's dest-direct transfers (no rotation scratch, no unrotate
    # epilogue) keep it at or under dissemination at every size.
    for r in rows.values():
        assert min(r, key=r.get) in ("dissemination", "pat")
        assert r["pat"] <= r["dissemination"] * 1.05


LARGE_PE_COUNTS = (64, 256, 1024, 4096)


def test_large_pe_crossover_vec(once, benchmark):
    """The same ablation at 64–4096 PEs, via the vec evaluator.

    The cooperative simulator prices one PE at a time, which caps the
    A1 sweeps at tens of PEs; the closed-form evaluator prices whole
    schedules at once, so the crossover curves extend to the PE counts
    the paper's future-work section asks about.  The committed
    reference copy of the full sweep is ``BENCH_vec.json``
    (``python -m repro.bench.sweeps --write vec``).
    """
    from repro.bench.sweeps import vec_point

    def sweep():
        rows = {}
        for n_pes in LARGE_PE_COUNTS:
            for nelems in (8, 4096):
                rows[(n_pes, nelems)] = {
                    c: vec_point(c, n_pes, nelems)
                    for c in ("broadcast", "allreduce")
                }
        return rows

    rows = once(sweep)
    print("\nA1-large — winners by (pes, elems), vec evaluator")
    print(f"{'pes':>6} {'elems':>7} {'broadcast':>14} {'allreduce':>14}")
    for (n_pes, nelems), r in rows.items():
        print(f"{n_pes:>6} {nelems:>7} {r['broadcast']['winner']:>14} "
              f"{r['allreduce']['winner']:>14}")
        for c in ("broadcast", "allreduce"):
            benchmark.extra_info[f"winner_{c}_{n_pes}_{nelems}"] = \
                r[c]["winner"]
    # At large PE counts the log-depth schemes win everything except
    # the tiny-payload broadcast, where the root's fire-and-forget
    # pipeline stays competitive up to a few hundred PEs.
    assert rows[(64, 8)]["broadcast"]["winner"] == "linear"
    for n_pes in (1024, 4096):
        assert rows[(n_pes, 4096)]["broadcast"]["winner"] == "binomial"
        assert rows[(n_pes, 4096)]["allreduce"]["winner"] == "rabenseifner"


PIPELINE_PE_COUNTS = (64, 256, 1024, 4096)


def test_pipelined_allreduce_large_payload_vec(once, benchmark):
    """Dual-pipelined vs ring vs Rabenseifner at 64-4096 PEs, 64 KiB+.

    The PR 8 acceptance sweep, in-process: the vec evaluator prices the
    three large-payload allreduce schedules at the PE counts where the
    pipeline depth pays off.  The committed reference copy is
    ``BENCH_pipeline.json`` (``python -m repro.bench.sweeps --write
    pipeline``; CI's perf-smoke checks it with ``python -m
    repro.bench.sweeps``).
    """
    from repro.bench.sweeps import pipeline_point

    def sweep():
        return {
            n_pes: pipeline_point(n_pes, 8192)  # 64 KiB of int64
            for n_pes in PIPELINE_PE_COUNTS
        }

    rows = once(sweep)
    print("\nA1-pipeline — 64 KiB allreduce, vec evaluator")
    print(f"{'pes':>6} {'segs':>5} {'ring/dual':>10} {'rab/dual':>9}"
          "  winner / tuning pick")
    for n_pes, p in rows.items():
        ratio = (f"{p['ring_over_dual']:>10.2f}"
                 if p["ring_over_dual"] is not None else f"{'—':>10}")
        print(f"{n_pes:>6} {p['segments']:>5} {ratio} "
              f"{p['rabenseifner_over_dual']:>9.2f}"
              f"  {p['winner']} / {p['tuning_pick']}")
        benchmark.extra_info[f"winner_{n_pes}"] = p["winner"]
    # The acceptance bar: >= 1.3x over ring wherever ring is measured
    # (it is Θ(N²) steps, so the sweep caps it at 512 PEs).
    for n_pes in (64, 256):
        assert rows[n_pes]["ring_over_dual"] >= 1.3
    # Past the ring cap the contest is dual vs Rabenseifner, and the
    # pipelined trees stay in the race at every measured count.
    for n_pes in (1024, 4096):
        assert rows[n_pes]["winner"] in ("dual-pipelined", "rabenseifner")
        assert rows[n_pes]["rabenseifner_over_dual"] >= 0.8
