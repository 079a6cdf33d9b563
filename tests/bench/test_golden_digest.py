"""Golden end-to-end digests of the memory model, through the runtime.

Per-PE cache/TLB counters and the machine's elapsed simulated time for
one small GUPs run and two small NAS IS runs on 8 PEs, frozen as
literal numbers from commit 80b565e (the last one with the
dict-of-LRU-lists ``Cache``).  Any change to ``machine/cache.py``,
``tlb.py`` or ``memsys.py`` that alters a hit, a miss, a writeback or a
nanosecond shows up here without the old implementation in tree.

To regenerate after an *intended* model change:
``PYTHONPATH=src python tests/bench/test_golden_digest.py``.
"""

from __future__ import annotations

import pytest

from repro.bench import gups as gups_mod
from repro.bench import nas_is as is_mod
from repro.params import MachineConfig
from repro.runtime.context import Machine

N_PES = 8


def _digest(module, run) -> tuple[list[tuple[int, ...]], float]:
    """Run ``run()`` with ``module.Machine`` captured; per-PE
    ``(l1 hits, l1 misses, l2 hits, l2 misses, tlb hits, tlb misses,
    l1 writebacks, l2 writebacks)`` and ``elapsed_ns``."""
    made = []

    class Capturing(Machine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    original = module.Machine
    module.Machine = Capturing
    try:
        run()
    finally:
        module.Machine = original
    (machine,) = made
    per_pe = []
    for pe in range(N_PES):
        hier = machine.hierarchy_of(pe)
        per_pe.append(hier.stat_tuple()
                      + (hier.l1.writebacks, hier.l2.writebacks))
    return per_pe, float(machine.elapsed_ns)


def gups_digest():
    params = gups_mod.GupsParams(log2_table_size=14, updates_per_pe=384,
                                 seed=3)
    return _digest(gups_mod, lambda: gups_mod.run_gups(
        MachineConfig(n_pes=N_PES), params))


def is_digest(problem_class):
    params = is_mod.IsParams(problem_class=problem_class, max_iterations=4)
    return _digest(is_mod, lambda: is_mod.run_is(
        MachineConfig(n_pes=N_PES), params))


#: Class S-scaled keeps every L1 run under 8 x 32 lines (rounds and the
#: scalar path only); class S is the smallest whose runs are long enough
#: for the closed-form all-miss fill, taken and refused.
DIGESTS = {
    "gups": gups_digest,
    "is-S-scaled": lambda: is_digest("S-scaled"),
    "is-S": lambda: is_digest("S"),
}


GOLDEN = {
    "gups": ([
        (3125, 269, 10, 259, 2051, 7, 10, 0),
        (3186, 266, 7, 259, 2043, 7, 10, 0),
        (3048, 266, 7, 259, 2045, 7, 9, 0),
        (3167, 265, 6, 259, 2043, 7, 9, 0),
        (3128, 268, 9, 259, 2047, 7, 12, 0),
        (3142, 266, 7, 259, 2043, 7, 9, 0),
        (3139, 267, 8, 259, 2045, 7, 9, 0),
        (3066, 266, 7, 259, 2043, 7, 9, 0),
    ], 408910.0800000735),
    "is-S-scaled": ([
        (4904, 3605, 2832, 773, 7964, 14, 2957, 0),
        (2324, 3102, 2330, 772, 3868, 12, 2449, 0),
        (2860, 3606, 2832, 774, 4896, 14, 2959, 0),
        (2329, 3124, 2349, 775, 3883, 12, 2467, 0),
        (3884, 3603, 2829, 774, 5924, 14, 2956, 0),
        (2331, 3102, 2328, 774, 3873, 12, 2449, 0),
        (2859, 3619, 2843, 776, 4906, 14, 2969, 0),
        (2322, 3116, 2342, 774, 3871, 12, 2459, 0),
    ], 1033627.1924897596),
    "is-S": ([
        (4253, 12298, 10373, 1925, 14652, 33, 7937, 0),
        (1425, 12092, 10161, 1931, 10583, 31, 7726, 0),
        (1948, 12568, 10644, 1924, 11587, 33, 8200, 0),
        (1176, 12311, 10387, 1924, 10561, 31, 7944, 0),
        (2940, 12636, 10707, 1929, 12627, 33, 8493, 0),
        (1447, 12042, 10118, 1924, 10576, 31, 7947, 0),
        (2432, 12114, 10186, 1928, 11619, 33, 8231, 0),
        (1954, 11545, 9619, 1926, 10564, 31, 7436, 0),
    ], 3628292.202973985),
}


@pytest.mark.parametrize("name", list(DIGESTS))
def test_counters_and_elapsed_ns_match_golden(name):
    per_pe, elapsed_ns = DIGESTS[name]()
    want_per_pe, want_ns = GOLDEN[name]
    assert per_pe == want_per_pe
    assert elapsed_ns == want_ns  # exact: the model is deterministic


if __name__ == "__main__":
    for name, fn in DIGESTS.items():
        per_pe, elapsed_ns = fn()
        print(f'    "{name}": ([')
        for row in per_pe:
            print(f"        {row},")
        print(f"    ], {elapsed_ns!r}),")
