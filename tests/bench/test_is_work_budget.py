"""Bulk cache work of one NAS IS repetition: counts, no clock.

NAS IS (the paper's Figure 5 kernel, ``is_sim``) spends its memory-model
time in :meth:`Cache.access_run` over long runs of lines.  Two counts
over one 8-PE A-scaled repetition at the workload's seed 1 gate that
work: the ``argsort`` calls made under :meth:`Cache.access_run` (a
closed-form overwrite needs no sort) and the rounds of
:meth:`Cache._touch_sets` (a repeated one-round run re-hits its slots
without one).  Both are counted with ``sys.setprofile`` on every thread,
so a PE step that runs as another thread's continuation is counted too.

The budgets are the counts when they were set plus about 5 %.  While
long all-miss runs were filled by ranking each set's keys and every
repeat of a run took a round, the counts were 3 056 and 4 749.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter

from repro.bench.nas_is import IsParams, generate_keys, run_is
from repro.machine.cache import Cache
from repro.params import MachineConfig

#: ``is_sim``'s configuration at seed 1 (``bench_e2e/workloads.py``).
PARAMS = IsParams(problem_class="A-scaled", max_iterations=10,
                  seed=float(314159265 + 2))
N_PES = 8

BUDGETS = {"argsort": 0, "rounds": 3336}


def bulk_work() -> Counter:
    """``argsort`` calls under :meth:`Cache.access_run` and
    :meth:`Cache._touch_sets` rounds in one run of ``PARAMS``."""
    counts: Counter = Counter()
    run_code = Cache.access_run.__code__
    round_code = Cache._touch_sets.__code__

    def on_event(frame, event, arg):
        if event == "call":
            if frame.f_code is round_code:
                counts["rounds"] += 1
        elif event == "c_call" and getattr(arg, "__name__", "") == "argsort":
            while frame is not None and frame.f_code is not run_code:
                frame = frame.f_back
            if frame is not None:
                counts["argsort"] += 1

    keys = generate_keys(PARAMS)
    threading.setprofile(on_event)
    sys.setprofile(on_event)
    try:
        res = run_is(MachineConfig(n_pes=N_PES), PARAMS, keys)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    assert res.partial_verified and res.full_verified
    return counts


def test_bulk_cache_work_budget():
    got = bulk_work()
    for name, budget in BUDGETS.items():
        assert got[name] <= budget, (name, got[name], budget)


if __name__ == "__main__":  # pragma: no cover - prints the counts
    print(dict(bulk_work()))
