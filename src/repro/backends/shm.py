"""Shared-memory plumbing for the multiprocessing backend.

Three pieces, all built on ``multiprocessing.shared_memory``:

* :class:`SegmentGroup` — the per-PE memory segments plus one control
  segment, with **unlink-exactly-once** teardown (idempotent ``close``/
  ``unlink`` safe against double-close and interpreter-exit paths, and
  a resource-tracker workaround so attaching workers never unlink what
  the parent owns).
* :class:`ControlBlock` — typed access to the control segment's 8-byte
  cells: the abort flag, the sense-reversing world-barrier state, the
  per-PE progress counters and the pairwise signal table.
* :class:`ShmBarrier` — a *sense-reversing* central barrier for the
  world plus a leader-based signal-counter barrier for teams.  Every
  spin-wait polls the abort flag and a deadline, so a crashed or
  misbehaving peer turns into :class:`~repro.errors.WorkerAbortedError`
  or :class:`~repro.errors.BackendTimeoutError` instead of a hang.

Memory-ordering notes.  Every shared cell has a **single writer** (the
signal table cell ``(src, dst)`` is written only by ``src``; progress
counter ``r`` only by PE ``r``) or is written under the barrier lock
(world-barrier count and sense).  Cells are 8-byte aligned and accessed
through a ``memoryview.cast("Q")``, which CPython performs as one
aligned 8-byte copy; spinners only ever wait for a *monotonic* counter
to reach a target or for the one-bit sense to flip, so a stale read
merely spins once more.
"""

from __future__ import annotations

import os
import secrets
import time
from multiprocessing import resource_tracker, shared_memory
from typing import Callable, Sequence

from ..errors import BackendTimeoutError, WorkerAbortedError

__all__ = [
    "SegmentGroup",
    "ControlBlock",
    "ShmBarrier",
    "spin_until",
    "segment_prefix",
]

#: All segments of one session share this prefix (leak checks grep it).
_PREFIX = "xbgas"


def segment_prefix(token: str) -> str:
    """The ``/dev/shm`` name prefix of a session's segments."""
    return f"{_PREFIX}-{token}"


class SegmentGroup:
    """The shared segments of one session: ``n_pes`` memories + control.

    The creating process (the parent) passes ``create=True`` and becomes
    the owner: only it may ``unlink``, and it does so exactly once no
    matter how many of double ``close()``, explicit ``unlink()`` and the
    interpreter-exit path run.  Workers attach by token and only ever
    ``close`` their mappings.
    """

    def __init__(self, token: str, n_pes: int, seg_bytes: int,
                 ctl_bytes: int, *, create: bool):
        self.token = token
        self.n_pes = n_pes
        self.owner = create
        self._closed = False
        self._unlinked = False
        prefix = segment_prefix(token)
        names = [f"{prefix}-pe{r}" for r in range(n_pes)]
        self._ctl_name = f"{prefix}-ctl"
        self.segments: list[shared_memory.SharedMemory] = []
        self.control: shared_memory.SharedMemory | None = None
        try:
            # Resource-tracker note: on CPython < 3.13 *attaching* also
            # registers with the tracker.  All workers are children of
            # the owner, so they share one tracker process whose cache
            # is a set — duplicate registrations are idempotent and the
            # owner's single ``unlink`` (which unregisters internally)
            # clears the entry.  The entry doubles as the crash backstop:
            # if the owner dies without unlinking, the tracker reaps the
            # segments at exit.
            for name in names:
                self.segments.append(shared_memory.SharedMemory(
                    name=name, create=create, size=seg_bytes))
            self.control = shared_memory.SharedMemory(
                name=self._ctl_name, create=create, size=ctl_bytes)
        except BaseException:
            # Partial construction must not leak /dev/shm entries.
            self._closed = True
            for seg in self.segments:
                seg.close()
                if create:
                    try:
                        seg.unlink()
                    except FileNotFoundError:
                        pass
            raise
        if create:
            # Fresh control state (tmpfs pages are zero-filled already,
            # but an explicit wipe keeps re-created tokens safe).
            self.control.buf[:] = bytes(ctl_bytes)

    @property
    def names(self) -> list[str]:
        return [seg.name for seg in self.segments] + [self.control.name]

    def close(self) -> None:
        """Drop this process's mappings (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for seg in self.segments:
            seg.close()
        if self.control is not None:
            self.control.close()

    def unlink(self) -> None:
        """Remove the segments from the OS — **exactly once**, owner only.

        Safe to call any number of times and from any teardown path
        (explicit close, ``__del__`` of a session, ``atexit``): the
        first call unlinks, every later call is a no-op.  A missing
        segment (e.g. removed by an external cleaner) is tolerated.
        """
        if not self.owner or self._unlinked:
            return
        self._unlinked = True
        for seg in self.segments + ([self.control] if self.control else []):
            try:
                seg.unlink()
            except FileNotFoundError:
                # Externally removed: still drop the tracker entry that
                # SharedMemory.unlink would have cleared.
                try:
                    resource_tracker.unregister(f"/{seg.name}",
                                                "shared_memory")
                except Exception:
                    pass

    @property
    def unlinked(self) -> bool:
        return self._unlinked

    @staticmethod
    def new_token() -> str:
        return f"{os.getpid():x}-{secrets.token_hex(4)}"


# -- control-segment layout (8-byte cells) ----------------------------------
#
# [0]                world-barrier arrival count (lock-protected)
# [1]                world-barrier sense bit (flipped by last arriver)
# [2, 2+n)           per-PE abort cells: the run id PE r must unwind
#                    (0 = clean).  Per-PE rather than a single global
#                    cell so concurrent team-scoped runs fail
#                    independently: aborting tenant A's ranks never
#                    tells tenant B's spinners to unwind.
# [2+n, 2+2n)        per-PE completed-op progress counters
# [2+2n, 2+2n+n*n)   pairwise signal table: cell (src, dst)

_WB_COUNT = 0
_WB_SENSE = 1
_DYN0 = 2


def control_bytes(n_pes: int) -> int:
    return 8 * (_DYN0 + 2 * n_pes + n_pes * n_pes)


#: Wall seconds a wait spends yielding the core before it parks.
YIELD_BUDGET_S = 1e-3
#: One park: a short timer sleep once the yield budget is spent.
_PARK_S = 2e-4


def spin_until(pred: Callable[[], bool], *, deadline: float,
               check_abort: Callable[[], None], what: str) -> None:
    """Spin until ``pred()`` — yield the core, then park; poll abort/deadline.

    Every iteration checks the run's abort cell and the watchdog
    deadline before waiting again.  For the first :data:`YIELD_BUDGET_S`
    of wall time a waiter calls ``os.sched_yield()`` (under a microsecond
    when nobody else wants the core); after that it parks in
    :data:`_PARK_S` sleeps so a long wait does not starve the PE it is
    waiting for on an oversubscribed host (the paper's own 12-core
    machine ran 12 Spike processes plus MPICH).

    The yield phase is bounded by wall time, not by an iteration count:
    a fixed number of yields runs out in tens of microseconds, less than
    the wake-up skew between a job's PEs, and every wait would then pay
    a park.  A zero-second ``time.sleep`` is no substitute for a yield:
    on CPython 3.11 it is a ``clock_nanosleep`` that pays the kernel's
    timer slack, about 57 µs per call on a 2-vCPU host.
    """
    park_at = 0.0
    while not pred():
        check_abort()
        now = time.monotonic()
        if now > deadline:
            raise BackendTimeoutError(
                f"timed out waiting for {what} (deadlocked peer?)"
            )
        if not park_at:
            park_at = now + YIELD_BUDGET_S
        if now < park_at:
            os.sched_yield()
        else:
            time.sleep(_PARK_S)


class ControlBlock:
    """Typed view of the control segment's 8-byte cell array."""

    def __init__(self, shm: shared_memory.SharedMemory, n_pes: int):
        self.n_pes = n_pes
        self._cells = shm.buf.cast("Q")
        self._abort0 = _DYN0
        self._prog0 = _DYN0 + n_pes
        self._sig0 = _DYN0 + 2 * n_pes

    def release(self) -> None:
        """Drop the exported memoryview (required before shm close)."""
        self._cells.release()

    # -- abort cells (one per PE) -------------------------------------------

    def abort_ranks(self, ranks: Sequence[int] | None, run_id: int) -> None:
        """Tell ``ranks`` (``None`` = everyone) to unwind run ``run_id``.

        Stamping only the failing run's own ranks is what isolates
        concurrent team-scoped runs: PEs serving other runs never see
        their cell change and keep spinning undisturbed.
        """
        for r in (range(self.n_pes) if ranks is None else ranks):
            self._cells[self._abort0 + r] = run_id

    def clear_abort(self, ranks: Sequence[int] | None = None) -> None:
        for r in (range(self.n_pes) if ranks is None else ranks):
            self._cells[self._abort0 + r] = 0

    def aborted_run(self, rank: int) -> int:
        return self._cells[self._abort0 + rank]

    # -- progress counters --------------------------------------------------

    def bump_progress(self, rank: int) -> None:
        """Publish one more completed one-sided op by ``rank``."""
        self._cells[self._prog0 + rank] += 1

    def progress(self, rank: int) -> int:
        return self._cells[self._prog0 + rank]

    # -- world barrier cells (callers hold the barrier lock for RMW) --------

    def wb_count(self) -> int:
        return self._cells[_WB_COUNT]

    def wb_set_count(self, v: int) -> None:
        self._cells[_WB_COUNT] = v

    def wb_sense(self) -> int:
        return self._cells[_WB_SENSE]

    def wb_flip_sense(self) -> None:
        self._cells[_WB_SENSE] ^= 1

    # -- pairwise signal counters ------------------------------------------

    def _sig_idx(self, src: int, dst: int) -> int:
        return self._sig0 + src * self.n_pes + dst

    def signal(self, src: int, dst: int) -> None:
        """One more signal from ``src`` to ``dst`` (single writer: src)."""
        idx = self._sig_idx(src, dst)
        self._cells[idx] += 1

    def signals(self, src: int, dst: int) -> int:
        return self._cells[self._sig_idx(src, dst)]

    def baseline(self, rank: int) -> tuple[int, dict[int, int]]:
        """The barrier state of an idle PE ``rank``: the world sense and
        the signals each peer has sent it (:meth:`ShmBarrier.attach_sync`)."""
        return self.wb_sense(), {src: n for src in range(self.n_pes)
                                 if (n := self.signals(src, rank))}

    def reset_sync_state(self) -> None:
        """Zero barrier counters and the signal table (recovery path).

        Only safe while no worker is inside a barrier — the session
        quiesces all workers before calling this.
        """
        self._cells[_WB_COUNT] = 0
        self._cells[_WB_SENSE] = 0
        for i in range(self._sig0, self._sig0 + self.n_pes * self.n_pes):
            self._cells[i] = 0


class ShmBarrier:
    """Barriers over the control segment, one instance per worker.

    * **World barrier** — the classic sense-reversing central barrier:
      arrivals increment a lock-protected counter; the last arriver
      resets it and flips the shared sense; everyone spins until the
      sense matches their locally-flipped copy.  Counters never leak
      between instances, so back-to-back barriers are safe.
    * **Team barrier** — leader-based over the pairwise signal table:
      members signal the leader (lowest member rank), the leader signals
      back.  Signal counters are monotonic with one writer per cell and
      per-pair consumed counts local to each process, so disjoint teams
      synchronise independently and a slow reader can never observe a
      reused cell (no ABA).
    """

    def __init__(self, ctl: ControlBlock, rank: int, n_pes: int, lock):
        self.ctl = ctl
        self.rank = rank
        self.n_pes = n_pes
        self.lock = lock
        self._sense = 0
        #: (src -> signals consumed) for waits on the signal table.
        self._consumed: dict[int, int] = {}
        #: Current run id (for abort detection); set by the worker loop.
        self.run_id = 0
        #: Per-wait watchdog seconds.
        self.timeout = 60.0

    # -- abort plumbing -----------------------------------------------------

    def _check_abort(self) -> None:
        aborted = self.ctl.aborted_run(self.rank)
        if aborted and aborted == self.run_id:
            raise WorkerAbortedError(
                f"PE {self.rank}: run {self.run_id} aborted by a peer failure"
            )

    def _deadline(self) -> float:
        return time.monotonic() + self.timeout

    # -- world barrier ------------------------------------------------------

    def world(self) -> None:
        if self.n_pes == 1:
            return
        ctl = self.ctl
        with self.lock:
            count = ctl.wb_count() + 1
            if count == self.n_pes:
                ctl.wb_set_count(0)
                ctl.wb_flip_sense()
            else:
                ctl.wb_set_count(count)
        self._sense ^= 1
        target = self._sense
        spin_until(lambda: ctl.wb_sense() == target,
                   deadline=self._deadline(),
                   check_abort=self._check_abort,
                   what=f"world barrier (PE {self.rank})")

    # -- team barrier -------------------------------------------------------

    def _wait_signal(self, src: int) -> None:
        ctl = self.ctl
        have = self._consumed.get(src, 0)
        spin_until(lambda: ctl.signals(src, self.rank) > have,
                   deadline=self._deadline(),
                   check_abort=self._check_abort,
                   what=f"signal {src}->{self.rank}")
        self._consumed[src] = have + 1

    def team(self, members: Sequence[int]) -> None:
        members = tuple(sorted(set(members)))
        if len(members) == self.n_pes:
            return self.world()
        if len(members) <= 1:
            return
        leader = members[0]
        me = self.rank
        if me == leader:
            for m in members[1:]:
                self._wait_signal(m)
            for m in members[1:]:
                self.ctl.signal(me, m)
        else:
            self.ctl.signal(me, leader)
            self._wait_signal(leader)

    # -- recovery -----------------------------------------------------------

    def reset_local(self) -> None:
        """Forget local barrier state (after a session-level reset)."""
        self._sense = 0
        self._consumed.clear()

    def attach_sync(self, baseline: tuple | None = None) -> None:
        """Adopt ``baseline`` (:meth:`ControlBlock.baseline`; the
        *current* shared state if not given) as this PE's own.

        Two callers: a starting worker, with the baseline its parent read
        at spawn, while no run held the rank (read in the worker, a peer
        may have signalled it already, a signal then never awaited); and
        a survivor of a failed team-scoped run discarding stale signals
        its dead peers left.  Either way the PE is idle: local sense
        equals the shared sense, and every signal sent counts as consumed.
        """
        self._sense, consumed = baseline or self.ctl.baseline(self.rank)
        self._consumed = dict(consumed)
