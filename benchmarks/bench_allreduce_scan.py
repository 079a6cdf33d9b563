"""A8 — reduction-to-all and scan (paper section 7's explicit calls).

Compares the one-sided recursive-doubling allreduce against the
reduce+broadcast composition across payload sizes, and measures the
prefix scan's log-depth scaling.
"""

from __future__ import annotations

from repro.params import MachineConfig
from repro.runtime import Machine


def _cfg(n_pes=8):
    return MachineConfig(
        n_pes=n_pes,
        cores_per_node=1,
        memory_bytes_per_pe=16 * 1024 * 1024,
        symmetric_heap_bytes=8 * 1024 * 1024,
        collective_scratch_bytes=2 * 1024 * 1024,
    )


def allreduce_time(which: str, nelems: int, n_pes: int = 8):
    def body(ctx):
        ctx.init()
        src = ctx.malloc(8 * nelems)
        dest = ctx.malloc(8 * nelems)
        ctx.barrier()
        t0 = ctx.pe.clock
        if which == "composed":
            ctx.reduce(dest, src, nelems, 1, 0, "sum", "long")
            ctx.broadcast(dest, dest, nelems, 1, 0, "long")
        else:
            ctx.allreduce(dest, src, nelems, 1, "sum", "long",
                          algorithm=which)
        dt = ctx.pe.clock - t0
        ctx.close()
        return dt

    m = Machine(_cfg(n_pes))
    dt = max(m.run(body))
    return dt, m.stats.barriers


def test_allreduce_vs_composition(once, benchmark):
    def sweep():
        rows = {}
        for nelems in (8, 512, 8192, 65536):
            rows[nelems] = {
                "doubling": allreduce_time("doubling", nelems),
                "rabenseifner": allreduce_time("rabenseifner", nelems),
                "composed": allreduce_time("composed", nelems),
            }
        return rows

    rows = once(sweep)
    print("\nA8 — allreduce, 8 nodes (ns / barrier rounds)")
    print(f"{'elems':>8} {'doubling':>18} {'rabenseifner':>18} "
          f"{'reduce+bcast':>18}")
    for nelems, r in rows.items():
        d, rb, c = r["doubling"], r["rabenseifner"], r["composed"]
        print(f"{nelems:>8} {d[0]:>12.0f} ({d[1]:>2}) {rb[0]:>12.0f} "
              f"({rb[1]:>2}) {c[0]:>12.0f} ({c[1]:>2})")
        # Recursive doubling always needs fewer synchronisation rounds.
        assert d[1] < c[1]
        benchmark.extra_info[f"doubling_{nelems}_ns"] = round(d[0], 1)
        benchmark.extra_info[f"rabenseifner_{nelems}_ns"] = round(rb[0], 1)
        benchmark.extra_info[f"composed_{nelems}_ns"] = round(c[0], 1)
    # Rabenseifner wins the bandwidth-bound regime.
    big = max(rows)
    assert rows[big]["rabenseifner"][0] < rows[big]["doubling"][0]


def test_scan_log_depth(once, benchmark):
    def scan_time(n_pes):
        def body(ctx):
            ctx.init()
            src = ctx.malloc(8 * 16)
            dest = ctx.private_malloc(8 * 16)
            ctx.barrier()
            t0 = ctx.pe.clock
            ctx.scan(dest, src, 16, 1, "sum", "long")
            dt = ctx.pe.clock - t0
            ctx.close()
            return dt

        return max(Machine(_cfg(n_pes)).run(body))

    def sweep():
        return {n: scan_time(n) for n in (2, 4, 8, 16)}

    rows = once(sweep)
    print("\nA8 — inclusive sum scan (128 B) by PE count: "
          + ", ".join(f"{n}: {t:.0f} ns" for n, t in rows.items()))
    # The stage count is log N; measured time also carries the shared
    # fabric's serialisation of the per-stage gets (≈N messages), so the
    # bound to assert is sub-quadratic growth, not pure log.
    assert rows[16] < 12 * rows[2]
    benchmark.extra_info.update({f"{n}pe_ns": round(t, 1)
                                 for n, t in rows.items()})
