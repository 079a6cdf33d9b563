"""Frozen digests of every registry schedule, in each of its forms.

A compiled schedule is read four ways: its dataclass tree (``repr``,
``describe`` per rank), its step table (the twelve columns, the
per-rank barrier counts and the buffer names) and its mailbox lowering
(``repr``).  One digest per registry shape — sha256 over all four — pins
them together, so a compiler that emits its step table directly must
still produce, through its lazily rebuilt tree, exactly the tree the
tree-building compiler produced.  The digests were generated on commit
e115b60, when most compilers still built the tree, with nothing but
the registry's stride-2 shapes added to it; every compiler has emitted
rows since (a ``Pipeline`` block rebuilt from each row's group), and
not one digest has changed.

To regenerate after an *intended* change to a compiler:
``PYTHONPATH=src python tests/collectives/test_schedule_digest.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.collectives.schedule.mailbox import lower_to_mailbox
from repro.collectives.schedule.registry import (
    BUILTIN_ALGORITHMS,
    builtin_schedules,
)

GOLDEN_PATH = Path(__file__).with_name("schedule_digests.json")
PE_COUNTS = tuple(range(1, 20)) + (33, 64)
#: The step-table columns, in the order they are hashed.
COLUMNS = ("rank", "phase", "slot", "op", "a_buf", "a_off", "b_buf",
           "b_off", "nelems", "stride", "peer", "aux")


def schedule_digest(sched) -> str:
    h = hashlib.sha256()

    def part(data: bytes) -> None:
        h.update(data)
        h.update(b"\0")

    part(repr(sched).encode())
    for r in range(sched.n_pes):
        part(sched.describe(r).encode())
    table = sched.table
    for name in COLUMNS:
        part(np.asarray(getattr(table, name), dtype=np.int64).tobytes())
    part(np.asarray(table.barriers, dtype=np.int64).tobytes())
    part(repr(tuple(table.names)).encode())
    part(repr(lower_to_mailbox(sched)).encode())
    return h.hexdigest()[:20]


def pair_digests(collective: str, algorithm: str) -> dict:
    return {label: schedule_digest(sched)
            for label, sched in builtin_schedules(
                PE_COUNTS, pairs={(collective, algorithm)})}


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("collective,algorithm", BUILTIN_ALGORITHMS)
def test_schedule_digests_unchanged(collective, algorithm):
    want = {label: digest for label, digest in _golden().items()
            if label.startswith(f"{collective}:{algorithm} ")}
    got = pair_digests(collective, algorithm)
    assert sorted(got) == sorted(want), "registry shapes changed"
    wrong = [label for label in got if got[label] != want[label]]
    assert not wrong, f"schedule digests changed: {wrong[:5]}"


def test_numpy_section_indices_leave_digests_alone():
    """A numpy integer equals and hashes like the int it holds, so a
    schedule whose sections carry ``np.int64`` indices or block ranks
    must not seed the shared idle-stage cache with them: every later
    schedule would render ``Stage(index=np.int64(3), ...)``."""
    from repro.collectives.schedule.ir import (
        OP_PUT, Buffer, Rows, Schedule, barrier_stage, skeleton)

    barrier_stage.cache_clear()
    shape = skeleton(0, [(np.int64(i), ()) for i in range(8)], 0)
    blocked = shape._replace(sections=tuple(
        sec._replace(block=(np.int64(0), np.int64(1)))
        if sec.kind == "stage" else sec for sec in shape.sections))
    rows = Rows()
    rows.add(0, 1, 0, OP_PUT, (0, 0), (0, 8), 1, 1, 1)
    for skel in (shape, blocked):
        sched = Schedule.from_rows(
            "numpy", "test", 2, 8, rows, [skel],
            buffers=(Buffer("buf", "user", 16, symmetric=True),))
        assert "np." not in repr(sched)
        assert all(type(sec.index) is int and
                   all(type(r) is int for r in sec.block)
                   for sec in sched.table.skeletons[0].sections)
    want = {label: digest for label, digest in _golden().items()
            if label.startswith("broadcast:binomial ")}
    assert pair_digests("broadcast", "binomial") == want


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    table: dict = {}
    for pair in BUILTIN_ALGORITHMS:
        table.update(pair_digests(*pair))
    GOLDEN_PATH.write_text(json.dumps(table, indent=0, sort_keys=True)
                           + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN_PATH}")
