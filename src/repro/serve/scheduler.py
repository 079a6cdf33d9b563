"""Admission control and PE carving for the serving pool.

The scheduler owns two pieces of state: the **free set** (world ranks
of the pool not currently running a job) and the **admission queue**
(accepted-but-waiting jobs, FIFO).  It is deliberately backend-agnostic
and does no I/O — the pool drives it with explicit ``now`` timestamps,
which keeps every policy decision unit-testable without a clock or a
worker pool.

Admission policy, in order of application:

1. **Backpressure** — ``offer`` raises
   :class:`~repro.errors.QueueFullError` when the queue is at
   ``max_queue_depth``; nothing is enqueued and no state changes.  The
   caller sheds load instead of the pool accumulating it.
2. **FIFO dispatch with conservative backfill** — ``dispatch_batches``
   scans the queue oldest-first and starts every job whose team fits
   the current free set.  A younger job may therefore start on PEs an
   older (wider) job cannot use *yet*; the older job keeps its queue
   position.
3. **Bounded wait** — a queued job whose age exceeds ``max_wait_s`` is
   rejected (``expired``) rather than starving invisibly; backfill can
   then never hold the head hostage forever, because the head's wait is
   bounded by construction.

Teams are carved as the *lowest* free ranks.  That packs jobs toward
rank 0, keeping high ranks contiguously free for wide jobs — a simple
(and deterministic) anti-fragmentation bias.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from ..errors import QueueFullError
from .job import JobSpec

__all__ = ["TeamScheduler", "QueuedJob"]


class QueuedJob:
    """One accepted job waiting for PEs."""

    __slots__ = ("job_id", "spec", "enqueued_at")

    def __init__(self, job_id: int, spec: JobSpec, enqueued_at: float):
        self.job_id = job_id
        self.spec = spec
        self.enqueued_at = enqueued_at

    def waited(self, now: float) -> float:
        return max(0.0, now - self.enqueued_at)


class TeamScheduler:
    """Carves disjoint teams out of ``n_pes`` pool slots (see module doc)."""

    def __init__(self, n_pes: int, *, max_queue_depth: int = 64,
                 max_wait_s: float = 30.0):
        if n_pes < 1:
            raise ValueError(f"pool needs at least one PE, got {n_pes}")
        if max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {max_queue_depth}"
            )
        if max_wait_s <= 0:
            raise ValueError(f"max_wait_s must be > 0, got {max_wait_s}")
        self.n_pes = n_pes
        self.max_queue_depth = max_queue_depth
        self.max_wait_s = max_wait_s
        self._free: set[int] = set(range(n_pes))
        self._queue: Deque[QueuedJob] = deque()

    # -- introspection ------------------------------------------------------

    @property
    def free_pes(self) -> int:
        return len(self._free)

    @property
    def depth(self) -> int:
        """Jobs accepted but not yet dispatched."""
        return len(self._queue)

    @property
    def idle(self) -> bool:
        """No queued jobs and every PE free."""
        return not self._queue and len(self._free) == self.n_pes

    # -- admission ----------------------------------------------------------

    def offer(self, job_id: int, spec: JobSpec, now: float) -> None:
        """Accept one job into the queue, or push back.

        Raises :class:`~repro.errors.QueueFullError` at the depth limit
        and ``ValueError`` for a team wider than the pool — both before
        any state change.
        """
        if spec.n_pes > self.n_pes:
            raise ValueError(
                f"job wants {spec.n_pes} PEs but the pool has only "
                f"{self.n_pes}"
            )
        if len(self._queue) >= self.max_queue_depth:
            raise QueueFullError(
                f"admission queue is at its depth limit "
                f"({self.max_queue_depth}); retry later"
            )
        self._queue.append(QueuedJob(job_id, spec, now))

    def expired(self, now: float) -> list[QueuedJob]:
        """Remove and return queued jobs that outlived ``max_wait_s``."""
        out = []
        kept: Deque[QueuedJob] = deque()
        for qj in self._queue:
            (out if qj.waited(now) > self.max_wait_s else kept).append(qj)
        self._queue = kept
        return out

    def dispatch_batches(self, now: float, max_batch: int) -> list[
            tuple[list[QueuedJob], tuple[int, ...]]]:
        """Pop every queued job that fits right now, with its team.

        Jobs are considered oldest-first; each returned batch's ranks
        are already removed from the free set (the caller *must* launch
        it, or give the ranks back via :meth:`release`).  A dispatched
        job may carry up to ``max_batch - 1`` *younger* queued jobs with
        a matching :attr:`~repro.serve.job.JobSpec.batch_key`, which
        share its team and run as one superstep.  Absorption never
        changes which head jobs dispatch (batching is opportunistic, on
        top of the FIFO-with-backfill policy), and fault-injecting jobs
        never join a batch (their key is ``None``).
        """
        queue = list(self._queue)
        taken: set[int] = set()
        out: list[tuple[list[QueuedJob], tuple[int, ...]]] = []
        for i, qj in enumerate(queue):
            if i in taken:
                continue
            if qj.spec.n_pes > len(self._free):
                continue
            ranks = tuple(sorted(self._free)[:qj.spec.n_pes])
            self._free -= set(ranks)
            taken.add(i)
            batch = [qj]
            key = qj.spec.batch_key
            if max_batch > 1 and key is not None:
                for j in range(i + 1, len(queue)):
                    if len(batch) >= max_batch:
                        break
                    if j in taken:
                        continue
                    if queue[j].spec.batch_key == key:
                        taken.add(j)
                        batch.append(queue[j])
            out.append((batch, ranks))
        self._queue = deque(qj for i, qj in enumerate(queue)
                            if i not in taken)
        return out

    def release(self, ranks: tuple[int, ...]) -> None:
        """Return a finished (or failed) job's PEs to the free set."""
        overlap = self._free & set(ranks)
        if overlap:
            raise ValueError(
                f"PEs {sorted(overlap)} released twice"
            )
        self._free |= set(ranks)
