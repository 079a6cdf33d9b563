"""The serving pool: one long-lived backend, many tenants' jobs.

:class:`ServePool` glues the pieces together:

* the **scheduler** (:class:`~repro.serve.scheduler.TeamScheduler`)
  decides *when* a job runs and *which* PEs it gets;
* an **engine** runs it — :class:`_MPEngine` multiplexes team-scoped
  runs onto one persistent :class:`~repro.backends.mp.MPSession`
  (true concurrency, crash isolation via in-place slot rebuild), while
  :class:`_LocalEngine` is the coreless-CI fallback that executes each
  job on a fresh in-process sim/vec session (serialized execution, but
  the *same* scheduler decisions, accounting and job program).  Each
  engine has one ``launch``: a dispatch is a batch of jobs sharing a
  team, and a lone job is a batch of one;
* **stats** (:class:`~repro.serve.stats.ServeStats`) bill each tenant
  for latency, queue wait and PE-seconds.

The pool is single-threaded and poll-driven: callers ``submit`` specs
and ``pump``/``drain`` to make progress.  That keeps every admission
decision deterministic given the submission order and job durations —
there is no hidden dispatcher thread to race against.

Crash isolation contract (the tentpole property): a job whose worker
dies — seeded ``"raise"``/``"exit"`` faults, or any real bug — produces
a failed :class:`~repro.serve.job.JobResult` carrying the
:class:`~repro.errors.WorkerFailedError` diagnostics for *that job
only*.  Concurrent jobs of other tenants run to completion with
byte-identical digests to a fault-free run, and the pool keeps serving:
dead mp worker slots are rebuilt in place against the existing shared
segments before the job's PEs return to the free set.
"""

from __future__ import annotations

import os
import time
from typing import Any

from ..backends import get_backend
from ..backends.base import resolve_config
from ..backends.mp import MPSession
from ..errors import BackendError, ServeError
from ..params import MachineConfig
from ..sim.trace import EventTrace
from .job import JobResult, JobSpec
from .programs import run_collective_job
from .scheduler import TeamScheduler
from .stats import ServeStats

__all__ = ["ServePool"]


def _fold_digests(members: list[dict], k: int) -> str:
    """Job ``k``'s digest from the members' buffer digests (group
    order)."""
    import hashlib

    joined = ",".join(m["digests"][k] for m in
                      sorted(members, key=lambda m: m["member"]))
    return hashlib.sha256(joined.encode()).hexdigest()


class _MPEngine:
    """Team-scoped concurrent execution on one persistent MPSession."""

    concurrent = True

    def __init__(self, config: MachineConfig, timeout: float):
        self.session = MPSession(config, timeout=timeout)
        self._inflight: dict[int, tuple[int, Any]] = {}  # run_id -> (job, ticket)

    def launch(self, job_id: int, specs: list[JobSpec],
               ranks: tuple[int, ...]) -> None:
        wires = tuple(spec.as_wire() for spec in specs)
        ticket = self.session.submit(
            run_collective_job, [wires] * len(ranks), ranks=ranks,
            timeout=specs[0].timeout,
            payload_nbytes=sum(s.payload_nbytes for s in specs),
        )
        self._inflight[ticket.run_id] = (job_id, ticket)

    def poll(self, block_s: float = 0.0) -> list[
            tuple[int, bool, list[dict] | None, str | None]]:
        """Advance the session; report ``(job_id, ok, members, error)``
        for every job that finished since the last poll."""
        self.session.pump(block_s)
        done = [rid for rid, (_, t) in self._inflight.items() if t.complete]
        out = []
        for rid in done:
            job_id, ticket = self._inflight.pop(rid)
            try:
                members = self.session.finish(ticket)
            except BackendError as exc:
                out.append((job_id, False, None, str(exc)))
            else:
                out.append((job_id, True, members, None))
        return out

    @property
    def busy(self) -> bool:
        return bool(self._inflight)

    def close(self) -> None:
        self.session.close()


class _LocalEngine:
    """Coreless-CI fallback: each job on a fresh in-process session.

    Execution is serialized (one job runs to completion inside
    ``launch``), but PEs are still *logically* occupied between launch
    and the next ``poll`` — the scheduler, admission policy and
    accounting behave identically to the concurrent engine, which is
    what lets the serving test suite run without OS-level parallelism.
    """

    concurrent = False

    def __init__(self, backend_name: str, config: MachineConfig,
                 timeout: float):
        self.backend = get_backend(backend_name)
        self.config = config
        self.timeout = timeout
        self._done: list[tuple[int, bool, list[dict] | None,
                               str | None]] = []

    def launch(self, job_id: int, specs: list[JobSpec],
               ranks: tuple[int, ...]) -> None:
        wires = tuple(spec.as_wire() for spec in specs)
        cfg = self.config.with_(n_pes=len(ranks))
        try:
            members = self.backend.run(
                run_collective_job, [wires] * len(ranks), config=cfg)
        except Exception as exc:  # any PE failure fails this job only
            msg = f"{type(exc).__name__}: {exc}"
            cause = exc.__cause__
            if cause is not None:  # sim wraps the PE's exception; keep it
                msg += f" ({type(cause).__name__}: {cause})"
            self._done.append((job_id, False, None, msg))
        else:
            self._done.append((job_id, True, members, None))

    def poll(self, block_s: float = 0.0) -> list[
            tuple[int, bool, list[dict] | None, str | None]]:
        out, self._done = self._done, []
        return out

    @property
    def busy(self) -> bool:
        return bool(self._done)

    def close(self) -> None:
        pass


class _Tracked:
    """Pool-side lifecycle record of one admitted job."""

    __slots__ = ("spec", "submitted_at", "dispatched_at", "ranks")

    def __init__(self, spec: JobSpec, submitted_at: float):
        self.spec = spec
        self.submitted_at = submitted_at
        self.dispatched_at = 0.0
        self.ranks: tuple[int, ...] = ()


class ServePool:
    """A multi-tenant collective service over a persistent PE pool.

    Parameters
    ----------
    n_pes:
        Pool width (world size of the underlying backend session).
    backend:
        ``"mp"`` (persistent worker pool, concurrent team-scoped jobs),
        ``"sim"``/``"vec"`` (in-process fallback), or ``"auto"`` — mp
        when the host has more than one core, sim otherwise (or force
        it via the ``XBGAS_SERVE_BACKEND`` environment variable).
    max_queue_depth / max_wait_s:
        Admission policy knobs (see
        :class:`~repro.serve.scheduler.TeamScheduler`).
    timeout:
        Per-job backend watchdog base; each job's effective deadline
        also scales with its payload
        (:func:`repro.backends.mp.scaled_timeout`).
    trace:
        Record every job as a span event for Chrome-trace export
        (:attr:`trace`).
    batch_window:
        Opportunistic batching width (default 1 = off).  Every
        dispatch is a batch launched the same way: its head job plus,
        when > 1, up to ``batch_window - 1`` younger queued jobs with a
        matching :attr:`~repro.serve.job.JobSpec.batch_key`.  The batch
        shares one team and one run of
        :func:`~repro.serve.programs.run_collective_job`, which issues
        two or more jobs' collectives as **one superstep**; each job
        still gets its own :class:`JobResult` with per-tenant digests
        and latency accounting.  Fault-injecting jobs never batch; a
        crash inside a batch fails exactly that batch's jobs, and other
        teams are untouched.
    """

    def __init__(self, n_pes: int = 4, *, backend: str = "auto",
                 config: MachineConfig | None = None,
                 timeout: float = 60.0, max_queue_depth: int = 64,
                 max_wait_s: float = 30.0, trace: bool = False,
                 batch_window: int = 1):
        if batch_window < 1:
            raise ValueError(
                f"batch_window must be >= 1, got {batch_window}"
            )
        config = resolve_config(config, n_pes)
        name = os.environ.get("XBGAS_SERVE_BACKEND") or backend
        if name == "auto":
            name = "mp" if (os.cpu_count() or 1) > 1 else "sim"
        self.backend_name = name
        self.config = config
        if name == "mp":
            self._engine: _MPEngine | _LocalEngine = _MPEngine(
                config, timeout)
        elif name in ("sim", "vec"):
            self._engine = _LocalEngine(name, config, timeout)
        else:
            raise ServeError(
                f"unknown serving backend {name!r}; "
                "one of 'mp', 'sim', 'vec', 'auto'"
            )
        self.scheduler = TeamScheduler(
            config.n_pes, max_queue_depth=max_queue_depth,
            max_wait_s=max_wait_s,
        )
        self.batch_window = batch_window
        self.trace = EventTrace(enabled=trace)
        self.stats = ServeStats(trace=self.trace)
        self._jobs: dict[int, _Tracked] = {}
        self._batches: dict[int, list[int]] = {}  # head id -> batch ids
        self._results: list[JobResult] = []
        self._next_job = 0
        self._closed = False

    # -- submission ---------------------------------------------------------

    def submit(self, spec: JobSpec) -> int:
        """Admit one job; returns its id.

        Raises :class:`~repro.errors.QueueFullError` under backpressure
        (nothing enqueued) and ``ValueError`` for specs wider than the
        pool.  Admission is only the *accept* decision — the job runs
        whenever the scheduler finds it PEs; its terminal
        :class:`JobResult` arrives via :meth:`poll`/:meth:`drain`.
        """
        if self._closed:
            raise ServeError("ServePool used after close()")
        now = time.monotonic()
        job_id = self._next_job
        self.scheduler.offer(job_id, spec, now)  # may raise: id not burned
        self._next_job += 1
        self._jobs[job_id] = _Tracked(spec, now)
        self.stats.record_submit(spec.tenant)
        self._advance(0.0)
        return job_id

    # -- progress -----------------------------------------------------------

    def pump(self, block_s: float = 0.0) -> None:
        """Advance the pool: expire, dispatch, and collect completions."""
        if self._closed:
            raise ServeError("ServePool used after close()")
        self._advance(block_s)

    def _advance(self, block_s: float) -> None:
        now = time.monotonic()
        for qj in self.scheduler.expired(now):
            tracked = self._jobs.pop(qj.job_id)
            self._finish(JobResult(
                job_id=qj.job_id, tenant=tracked.spec.tenant,
                spec=tracked.spec, ok=False, rejected=True,
                error=(f"admission wait exceeded "
                       f"{self.scheduler.max_wait_s:.0f}s "
                       f"(AdmissionTimeoutError)"),
                queue_wait_s=qj.waited(now),
                latency_s=qj.waited(now),
            ))
        for batch, ranks in self.scheduler.dispatch_batches(
                now, self.batch_window):
            started = time.monotonic()
            for qj in batch:
                tracked = self._jobs[qj.job_id]
                tracked.dispatched_at = started
                tracked.ranks = ranks
            head = batch[0].job_id
            self._batches[head] = [qj.job_id for qj in batch]
            self._engine.launch(
                head, [self._jobs[qj.job_id].spec for qj in batch], ranks)
        for head_id, ok, members, error in self._engine.poll(block_s):
            end = time.monotonic()
            for k, job_id in enumerate(self._batches.pop(head_id)):
                tracked = self._jobs.pop(job_id)
                if job_id == head_id:
                    self.scheduler.release(tracked.ranks)
                queue_wait = tracked.dispatched_at - tracked.submitted_at
                service = end - tracked.dispatched_at
                self._finish(JobResult(
                    job_id=job_id, tenant=tracked.spec.tenant,
                    spec=tracked.spec, ok=ok, error=error,
                    digest=_fold_digests(members, k) if ok else None,
                    ranks=tracked.ranks, queue_wait_s=queue_wait,
                    service_s=service,
                    latency_s=end - tracked.submitted_at,
                ))

    def _finish(self, result: JobResult) -> None:
        self.stats.record_result(result)
        self._results.append(result)

    # -- collection ---------------------------------------------------------

    def poll(self) -> list[JobResult]:
        """Pop the results that have become terminal since the last poll."""
        out, self._results = self._results, []
        return out

    def drain(self, timeout_s: float | None = None) -> list[JobResult]:
        """Run the pool dry: block until every admitted job is terminal.

        Returns all pending results (including any not yet collected
        via :meth:`poll`).  ``timeout_s`` bounds the wait; on expiry a
        :class:`~repro.errors.ServeError` reports the stuck jobs.
        """
        deadline = None if timeout_s is None \
            else time.monotonic() + timeout_s
        while self._jobs:
            if deadline is not None and time.monotonic() > deadline:
                raise ServeError(
                    f"drain timed out with jobs "
                    f"{sorted(self._jobs)} still pending"
                )
            self._advance(0.05)
        return self.poll()

    # -- introspection ------------------------------------------------------

    @property
    def pending(self) -> int:
        """Admitted jobs not yet terminal (queued + running)."""
        return len(self._jobs)

    def snapshot(self) -> dict:
        """The pool's accounting summary (see ``ServeStats.snapshot``)."""
        snap = self.stats.snapshot()
        snap["pool"] = {
            "backend": self.backend_name,
            "n_pes": self.config.n_pes,
            "free_pes": self.scheduler.free_pes,
            "queue_depth": self.scheduler.depth,
            "max_queue_depth": self.scheduler.max_queue_depth,
            "max_wait_s": self.scheduler.max_wait_s,
            "batch_window": self.batch_window,
        }
        return snap

    # -- teardown -----------------------------------------------------------

    def close(self) -> None:
        """Tear the pool down (idempotent).  Pending jobs are abandoned."""
        if self._closed:
            return
        self._closed = True
        self._engine.close()

    def __enter__(self) -> "ServePool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
