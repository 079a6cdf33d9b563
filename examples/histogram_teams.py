#!/usr/bin/env python3
"""Distributed histogram with scatter/gather, reduce-to-all and teams.

A root PE owns a big sample array.  The program:

1. *scatters* variable-size chunks to all PEs (Algorithm 3 — note the
   per-PE counts, a versatility OpenSHMEM's API lacks, section 4.7);
2. each PE histograms its chunk locally;
3. the bin counts are combined with *reduce-to-all* (a section 7
   extension built from reduction + broadcast);
4. two *teams* (even and odd PEs) concurrently compute their own
   sub-histogram maxima (section 7's PE-subset collectives);
5. the per-PE chunk means are *gathered* (Algorithm 4) back to the root.

    python examples/histogram_teams.py
"""

from __future__ import annotations

import numpy as np

from repro import Machine, MachineConfig
from repro.collectives.teams import Team

N_SAMPLES = 6000
N_BINS = 16
VALUE_RANGE = 160


def main(ctx):
    ctx.init()
    me, n = ctx.my_pe(), ctx.num_pes()

    # Uneven chunk sizes: later PEs take slightly more work.
    base = N_SAMPLES // (n * (n + 1) // 2)
    msgs = [base * (i + 1) for i in range(n)]
    msgs[-1] += N_SAMPLES - sum(msgs)
    disp = [sum(msgs[:i]) for i in range(n)]

    samples = ctx.malloc(8 * N_SAMPLES)
    if me == 0:
        rng = np.random.default_rng(42)
        data = rng.integers(0, VALUE_RANGE, size=N_SAMPLES)
        ctx.view(samples, "long", N_SAMPLES)[:] = data

    # 1. Scatter distinct chunk sizes.
    chunk = ctx.private_malloc(8 * max(msgs))
    ctx.long_scatter(chunk, samples, msgs, disp, N_SAMPLES, 0)
    mine = np.array(ctx.view(chunk, "long", msgs[me]))

    # 2. Local histogram (charged to the simulated clock).
    local_hist, _ = np.histogram(mine, bins=N_BINS, range=(0, VALUE_RANGE))
    ctx.charge_stream(chunk, 8 * msgs[me])
    ctx.compute(msgs[me] * 2.0)

    # 3. Global histogram on every PE.
    hist_buf = ctx.malloc(8 * N_BINS)
    ghist_buf = ctx.malloc(8 * N_BINS)
    ctx.view(hist_buf, "long", N_BINS)[:] = local_hist
    ctx.allreduce(ghist_buf, hist_buf, N_BINS, 1, "sum", "long")
    ghist = np.array(ctx.view(ghist_buf, "long", N_BINS))
    assert ghist.sum() == N_SAMPLES

    # 4. Even/odd teams each find their tallest local bin, concurrently.
    members = tuple(r for r in range(n) if r % 2 == me % 2)
    team = Team(ctx, members)
    peak_buf = ctx.malloc(8)
    peak_out = ctx.private_malloc(8)
    ctx.view(peak_buf, "long", 1)[0] = int(local_hist.max())
    team.reduce(peak_out, peak_buf, 1, 1, 0, "max", "long")
    if team.my_pe() == 0:
        label = "even" if me % 2 == 0 else "odd"
        print(f"[PE {me}] {label} team's tallest local bin: "
              f"{int(ctx.view(peak_out, 'long', 1)[0])} samples")

    # 5. Gather each PE's chunk mean back to the root.
    mean_buf = ctx.malloc(8)
    ctx.view(mean_buf, "long", 1)[0] = int(mine.mean())
    means = ctx.private_malloc(8 * n)
    ones = [1] * n
    offs = list(range(n))
    ctx.long_gather(means, mean_buf, ones, offs, n, 0)

    if me == 0:
        print(f"\nglobal histogram over {N_SAMPLES} samples, "
              f"{N_BINS} bins of width {VALUE_RANGE // N_BINS}:")
        top = ghist.max()
        for b, count in enumerate(ghist):
            bar = "#" * int(40 * count / top)
            lo = b * VALUE_RANGE // N_BINS
            print(f"  [{lo:>3}..{lo + VALUE_RANGE // N_BINS:>3}) "
                  f"{count:>5} {bar}")
        mean_list = [int(v) for v in ctx.view(means, "long", n)]
        print(f"per-PE chunk means (gathered): {mean_list}")
    ctx.close()


if __name__ == "__main__":
    machine = Machine(MachineConfig(n_pes=6))
    machine.run(main)
    print(f"\nsimulated makespan: {machine.elapsed_ns / 1000:.1f} µs")
