"""The mp wait policy (:func:`repro.backends.shm.spin_until`), clock-free.

``time.monotonic``, ``os.sched_yield`` and ``time.sleep`` are patched as
``repro.backends.shm`` sees them, so the policy is pinned independently
of the interpreter's ``sleep(0)`` (a timer sleep on 3.11, a zero-timeout
``select()`` on 3.10) and of how loaded the host is.
"""

from __future__ import annotations

import time

import pytest

from repro.backends import shm
from repro.errors import BackendTimeoutError, WorkerAbortedError


class FakeClock:
    """A monotonic clock that advances only when told to; logs waits."""

    def __init__(self, step: float):
        self.now = 0.0
        self.step = step  # seconds each yield or sleep takes
        self.calls: list[str] = []

    def monotonic(self) -> float:
        return self.now

    def sched_yield(self) -> None:
        self.calls.append("yield")
        self.now += self.step

    def sleep(self, seconds: float) -> None:
        assert seconds > 0, "a park must be a real sleep, not sleep(0)"
        self.calls.append("sleep")
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock(step=1e-4)
    monkeypatch.setattr(shm.time, "monotonic", fake.monotonic)
    monkeypatch.setattr(shm.time, "sleep", fake.sleep)
    monkeypatch.setattr(shm.os, "sched_yield", fake.sched_yield)
    return fake


def _until(n: int):
    """A predicate that turns true on its ``n``-th call (1-based)."""
    seen = [0]

    def pred() -> bool:
        seen[0] += 1
        return seen[0] >= n
    return pred


def _no_abort() -> None:
    pass


def test_true_predicate_returns_without_waiting(clock):
    shm.spin_until(lambda: True, deadline=1.0, check_abort=_no_abort,
                   what="x")
    assert clock.calls == []


def test_yields_within_the_budget_then_parks(clock):
    budget_iters = round(shm.YIELD_BUDGET_S / clock.step)
    shm.spin_until(_until(budget_iters + 4), deadline=60.0,
                   check_abort=_no_abort, what="x")
    first_sleep = clock.calls.index("sleep")
    assert set(clock.calls[:first_sleep]) == {"yield"}
    # Bounded by wall time: the yields cover the budget, however many
    # iterations that takes.
    assert first_sleep * clock.step >= shm.YIELD_BUDGET_S - 1e-12
    assert first_sleep <= budget_iters + 1
    assert set(clock.calls[first_sleep:]) == {"sleep"}


def test_budget_is_wall_time_not_iterations(clock):
    """Fast yields do not use the budget up: 2 000 of them all stay yields."""
    clock.step = shm.YIELD_BUDGET_S / 4000
    shm.spin_until(_until(2001), deadline=60.0, check_abort=_no_abort,
                   what="x")
    assert clock.calls == ["yield"] * 2000


def test_check_abort_runs_every_iteration(clock):
    checks = []
    shm.spin_until(_until(40), deadline=60.0,
                   check_abort=lambda: checks.append(clock.now), what="x")
    assert len(checks) == 39 == len(clock.calls)
    assert "sleep" in clock.calls  # both phases were polled


def test_abort_propagates(clock):
    def aborted() -> None:
        if len(clock.calls) == 3:
            raise WorkerAbortedError("peer failed")

    with pytest.raises(WorkerAbortedError, match="peer failed"):
        shm.spin_until(lambda: False, deadline=60.0, check_abort=aborted,
                       what="x")
    assert clock.calls == ["yield"] * 3


def test_deadline_raises_timeout_naming_the_wait(clock):
    with pytest.raises(BackendTimeoutError, match="signal 3->1"):
        shm.spin_until(lambda: False, deadline=0.05, check_abort=_no_abort,
                       what="signal 3->1")
    assert clock.now > 0.05
    assert clock.calls[-1] == "sleep"


def _late_team_sum(ctx) -> int:
    """Each member's world rank, summed; the leader arrives 20 ms late."""
    ctx.init()
    buf = ctx.malloc(8)
    ctx.view(buf, "long", 1)[0] = ctx.my_pe()
    if ctx.my_pe() == 0:
        time.sleep(0.02)  # well past the yield budget: the peer parks
    ctx.barrier()
    ctx.allreduce(buf, buf, 1, 1, "sum", "long")
    total = int(ctx.view(buf, "long", 1)[0])
    ctx.close()
    return total


def test_parked_waiter_completes_on_real_processes(mp_sessions):
    """A waiter that outlives the yield budget parks and still completes."""
    session = mp_sessions.get(4)
    assert session.wait(session.submit(_late_team_sum, ranks=(0, 1))) \
        == [1, 1]
    assert session.wait(session.submit(_late_team_sum, ranks=(0, 3))) \
        == [3, 3]
    assert session.run(_late_team_sum) == [6, 6, 6, 6]
