"""Unit tests for team-scoped (rank-subset) runs on the mp session.

The ticket API (`submit`/`pump`/`wait`/`finish`) is what the serving
layer multiplexes tenants with; these tests pin its contract directly:
admission validation, disjointness, group-scoped synchronisation and
the payload-scaled watchdog.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.backends.mp import MPSession
from repro.backends.shm import ShmBarrier
from repro.errors import RuntimeStateError, WorkerFailedError

from ..conftest import small_config


def _team_sum(ctx) -> int:
    """Allreduce each member's world rank over the (default) group."""
    ctx.init()
    buf = ctx.malloc(8)
    ctx.view(buf, "long", 1)[0] = ctx.my_pe()
    ctx.barrier()
    ctx.allreduce(buf, buf, 1, 1, "sum", "long")
    total = int(ctx.view(buf, "long", 1)[0])
    ctx.close()
    return total


def _leader_returns_a_lambda(ctx):
    """The leader returns something unpicklable; its peer waits on it."""
    ctx.init()
    if ctx.my_pe() == 0:
        return lambda: None
    ctx.barrier()  # never released: only the abort can unwind it
    return "unreachable"


def test_unpicklable_result_fails_the_run_and_unwinds_peers(mp_sessions):
    session = mp_sessions.get(4)
    ticket = session.submit(_leader_returns_a_lambda, ranks=(0, 1),
                            timeout=30.0)
    with pytest.raises(WorkerFailedError, match="unpicklable result") as err:
        session.wait(ticket)
    # The peer was unwound by the abort cell (reported as collateral,
    # not as a failure) rather than left for the watchdog.
    assert list(err.value.failures) == [0]
    assert not ticket.timed_out and ticket.aborted.keys() == {1}
    assert session.wait(session.submit(_team_sum, ranks=(0, 1))) == [1, 1]
    assert session.run(_team_sum) == [6, 6, 6, 6]


def test_subset_run_scopes_collectives_to_the_team(mp_sessions):
    session = mp_sessions.get(4)
    assert session.wait(session.submit(_team_sum, ranks=(0, 2))) == [2, 2]
    assert session.wait(session.submit(_team_sum, ranks=(1, 3))) == [4, 4]
    # World submission still sums everyone.
    assert session.run(_team_sum) == [6, 6, 6, 6]


def test_disjoint_subsets_run_concurrently(mp_sessions):
    session = mp_sessions.get(4)
    low = session.submit(_team_sum, ranks=(0, 1))
    high = session.submit(_team_sum, ranks=(2, 3))
    assert session.wait(high) == [5, 5]
    assert session.wait(low) == [1, 1]


def test_overlapping_submit_rejected_while_outstanding(mp_sessions):
    session = mp_sessions.get(4)
    ticket = session.submit(_team_sum, ranks=(0, 1))
    try:
        with pytest.raises(RuntimeStateError, match="busy"):
            session.submit(_team_sum, ranks=(1, 2))
        with pytest.raises(RuntimeStateError):
            session.submit(_team_sum)  # world needs every PE free
    finally:
        assert session.wait(ticket) == [1, 1]
    # Once released, the previously-overlapping ranks are usable again.
    assert session.wait(session.submit(_team_sum, ranks=(1, 2))) == [3, 3]


def test_submit_validates_rank_lists(mp_sessions):
    session = mp_sessions.get(4)
    with pytest.raises(ValueError, match="zero ranks"):
        session.submit(_team_sum, ranks=())
    with pytest.raises(ValueError, match="duplicate"):
        session.submit(_team_sum, ranks=(1, 1))
    with pytest.raises(ValueError, match="out of range"):
        session.submit(_team_sum, ranks=(0, 4))
    assert session.run(_team_sum) == [6, 6, 6, 6]


def test_finish_requires_completion_and_is_single_shot(mp_sessions):
    session = mp_sessions.get(4)
    ticket = session.submit(_team_sum, ranks=(0, 1))
    while not ticket.complete:
        session.pump(0.05)
    assert session.finish(ticket) == [1, 1]
    with pytest.raises(RuntimeStateError, match="already finalized"):
        session.finish(ticket)


def test_payload_scales_the_watchdog_deadline(mp_sessions):
    from repro.backends.mp import TIMEOUT_BYTES_PER_S

    session = mp_sessions.get(4)
    nbytes = 16 * TIMEOUT_BYTES_PER_S
    ticket = session.submit(_team_sum, ranks=(0, 1), timeout=5.0,
                            payload_nbytes=nbytes)
    assert ticket.limit == pytest.approx(21.0)
    assert session.wait(ticket) == [1, 1]


def _rank_zero_exits(ctx):
    """World rank 0 dies hard inside its team run; its peer is unwound."""
    ctx.init()
    if ctx.my_pe() == 0:
        os._exit(23)
    ctx.barrier()
    return "unreachable"


@pytest.fixture
def late_rank_zero(monkeypatch):
    """Worker processes forked from here build rank 0's barrier a second
    late: its team peer signals it before it attaches, as a slow worker
    start on a loaded host does."""
    build = ShmBarrier.__init__

    def late(self, ctl, rank, n_pes, lock):
        if rank == 0:
            time.sleep(1.0)
        build(self, ctl, rank, n_pes, lock)

    monkeypatch.setattr(ShmBarrier, "__init__", late)


def test_workers_start_from_the_barrier_state_at_spawn(late_rank_zero):
    """A worker adopts the barrier state its parent read at spawn, not
    the state it finds once it runs: a leader that attached after its
    peer's signal would count the signal as consumed and wait for the
    next one until the watchdog."""
    with MPSession(small_config(3), timeout=5.0) as session:
        assert session.wait(session.submit(_team_sum, ranks=(0, 1))) \
            == [1, 1]


def test_a_rebuilt_slot_starts_from_a_clean_slate(late_rank_zero):
    """After a hard crash the replacement worker starts from the barrier
    state of the slot when it was rebuilt, whenever it attaches, and
    serves its team's next run at once."""
    with MPSession(small_config(3), timeout=5.0) as session:
        assert session.wait(session.submit(_team_sum, ranks=(0, 1))) \
            == [1, 1]
        with pytest.raises(WorkerFailedError, match="died"):
            session.wait(session.submit(_rank_zero_exits, ranks=(0, 1)))
        assert session.wait(session.submit(_team_sum, ranks=(0, 1))) \
            == [1, 1]
        assert session.run(_team_sum) == [3, 3, 3]
