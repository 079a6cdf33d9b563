"""Wall-clock performance-regression harness for the simulator itself.

Unlike ``repro.bench`` (which measures the *modeled* machine in
simulated nanoseconds), this package measures how fast the simulator
runs on the host: every benchmark executes the same workload twice —
once on the reference implementations (``fast_paths=False``: per-line
memory costing, scheduler-thread bounce) and once on the fast paths
(batched run costing, direct-handoff scheduling) — and reports median
wall-clock seconds for both plus their ratio.  Because both arms run on
the same host in the same process, the speedup is machine-independent
even though the absolute seconds are not.

``python -m repro.perf`` writes ``BENCH_simwall.json``;
``python -m repro.perf --check BENCH_simwall.json`` re-runs the sweep
and fails when a speedup falls below its floor (used by the CI
perf-smoke job); absolute seconds are never gated.
"""

from .bench import (  # noqa: F401
    BENCH_FILENAME,
    CHECK_FLOORS,
    SCHEMA,
    BenchResult,
    bench_bulk_costing,
    bench_collectives_micro,
    bench_engine_switch,
    bench_gups_slice,
    run_all,
)

__all__ = [
    "BENCH_FILENAME",
    "CHECK_FLOORS",
    "SCHEMA",
    "BenchResult",
    "bench_bulk_costing",
    "bench_collectives_micro",
    "bench_engine_switch",
    "bench_gups_slice",
    "run_all",
]
