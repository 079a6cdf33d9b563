#!/usr/bin/env python3
"""The doubly-pipelined dual-root allreduce, correctness and payoff.

Two dual-root binary trees (rooted at PE 0 and PE N/2) each carry half
the payload's segments: every segment is reduced up one tree and
broadcast down it again, and with S segments in flight the trees stay
full — each round moves only ``~1/S`` of the payload on the critical
path instead of the whole thing.  In the schedule IR this is a
pipeline block: S segments per tree level, laid out as a
barrier-separated wavefront of step-table rounds.

Part one runs the same PE program under ``algorithm="ring"`` and
``algorithm="dual-pipelined"`` on the simulator and checks the results
match bit for bit.  Part two prices the large-payload algorithms with
the closed-form vec evaluator at a PE count the simulator would crawl
through, showing where the pipeline earns its keep (the committed
sweep is ``BENCH_pipeline.json``).

    python examples/pipelined_allreduce.py [n_pes] [nelems]
"""

from __future__ import annotations

import sys

import numpy as np

import repro.xbrtime as xbr


def allreduce_program(ctx, nelems: int, algorithm: str,
                      segments: int | None) -> bytes:
    """Per-rank ramp, sum-allreduce with the given algorithm, bytes out."""
    ctx.init()
    me = ctx.my_pe()
    buf = ctx.malloc(8 * nelems)
    view = ctx.view(buf, "long", nelems)
    view[:] = np.arange(nelems, dtype=np.int64) + 1000 * me
    ctx.barrier()
    ctx.allreduce(buf, buf, nelems, 1, "sum", "long",
                  algorithm=algorithm, segments=segments)
    result = view.copy().tobytes()
    ctx.free(buf)
    ctx.close()
    return result


def price_large_payload(n_pes: int, nelems: int) -> None:
    """Makespans from the vec evaluator — no data arena, just the model."""
    from repro.bench.sweeps import pipeline_point

    p = pipeline_point(n_pes, nelems)
    kib = p["nbytes"] // 1024
    print(f"\nvec evaluator, {n_pes} PEs x {kib} KiB "
          f"(auto segments: {p['segments']}):")
    for algorithm, ns in sorted(p["makespans_ns"].items(),
                                key=lambda kv: kv[1]):
        print(f"  {algorithm:>15}: {ns:>12.0f} ns")
    print(f"ring/dual-pipelined makespan ratio: {p['ring_over_dual']:.2f}"
          f"  (tuning picks: {p['tuning_pick']})")


def main() -> None:
    n_pes = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    nelems = int(sys.argv[2]) if len(sys.argv) > 2 else 4096

    outputs = {}
    for algorithm, segments in (("ring", None), ("dual-pipelined", 4)):
        with xbr.init(backend="sim", n_pes=n_pes) as session:
            outputs[algorithm] = session.run(
                allreduce_program,
                [(nelems, algorithm, segments)] * n_pes)
        label = algorithm + (f" (S={segments})" if segments else "")
        print(f"{label:>22}: {n_pes} PEs done")

    assert outputs["ring"] == outputs["dual-pipelined"]
    expected = sum(np.arange(nelems, dtype=np.int64) + 1000 * r
                   for r in range(n_pes))
    values = np.frombuffer(outputs["ring"][0], dtype=np.int64)
    assert (values == expected).all()
    print(f"dual-pipelined matches ring bit-for-bit on "
          f"{n_pes} PEs x {nelems} elements")

    price_large_payload(48, 8192)


if __name__ == "__main__":
    main()
