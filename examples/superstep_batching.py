#!/usr/bin/env python3
"""Superstep batching: defer small collectives, flush them as one.

Small collectives are latency-bound: each call pays the full
``⌈log₂N⌉`` stage ladder for a few cache lines of payload.  Wrapping a
burst of them in ``ctx.superstep()`` defers every put/get/collective
into a request queue; at the context exit (or any explicit barrier) the
runtime flushes the queue — contiguous transfers coalesce, same-shape
collectives widen into one call over the concatenated payload, and
mixed batches fuse into a single schedule under shared barriers.
Results are byte-identical to the eager sequence; only the trip count
changes.

Part one runs K small allreduces eagerly and deferred on the simulator
and checks bit-for-bit identity.  Part two prices the same batch with
the closed-form vec evaluator, showing the latency payoff the committed
``BENCH_batch.json`` sweep records.

    python examples/superstep_batching.py [n_pes] [nelems] [batch]
"""

from __future__ import annotations

import sys

import numpy as np

import repro.xbrtime as xbr


def burst_program(ctx, nelems: int, batch: int, deferred: bool) -> bytes:
    """K sum-allreduces over distinct buffers, eager or superstepped."""
    ctx.init()
    me = ctx.my_pe()
    srcs, dests = [], []
    for j in range(batch):
        srcs.append(ctx.malloc(8 * nelems))
        dests.append(ctx.malloc(8 * nelems))
        ctx.view(srcs[j], "long", nelems)[:] = (
            np.arange(nelems, dtype=np.int64) + 1000 * me + j)
    ctx.barrier()
    if deferred:
        with ctx.superstep():
            for j in range(batch):
                ctx.allreduce(dests[j], srcs[j], nelems, 1, "sum", "long")
    else:
        for j in range(batch):
            ctx.allreduce(dests[j], srcs[j], nelems, 1, "sum", "long")
    result = b"".join(
        ctx.view(d, "long", nelems).copy().tobytes() for d in dests)
    ctx.close()
    return result


def price_batch(n_pes: int, nelems: int, batch: int) -> None:
    """Makespans from the vec evaluator — the BENCH_batch.json model."""
    from repro.bench.sweeps import batch_point

    p = batch_point(n_pes, nelems, batch)
    print(f"\nvec evaluator, {n_pes} PEs x {p['nbytes']} B x K={batch}:")
    print(f"  {'eager (K calls)':>18}: {p['eager_ns']:>12.0f} ns")
    print(f"  {'superstep (fused)':>18}: {p['superstep_ns']:>12.0f} ns")
    print(f"eager/superstep makespan ratio: {p['speedup']:.2f}")


def main() -> None:
    n_pes = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    nelems = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    batch = int(sys.argv[3]) if len(sys.argv) > 3 else 8

    outputs = {}
    for label, deferred in (("eager", False), ("superstep", True)):
        with xbr.init(backend="sim", n_pes=n_pes) as session:
            outputs[label] = session.run(
                burst_program, [(nelems, batch, deferred)] * n_pes)
        print(f"{label:>10}: {batch} allreduces on {n_pes} PEs done")

    assert outputs["eager"] == outputs["superstep"]
    print(f"superstep flush matches eager bit-for-bit on "
          f"{n_pes} PEs x {batch} x {nelems} elements")

    price_batch(16, nelems, batch)


if __name__ == "__main__":
    main()
