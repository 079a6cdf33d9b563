"""True-parallel execution: one OS process per PE over shared memory.

The paper ran xbrtime programs on 12 concurrent Spike processes bridged
by MPICH; this backend is the reproduction's equivalent substrate.  Each
PE is a worker process holding the *same* memory layout as a simulated
PE (private segment, scratch stacks, collective symmetric heap — see
:class:`~repro.runtime.context.Machine`), but the bytes live in
``multiprocessing.shared_memory`` segments mapped into every worker, so

* a symmetric address is the same *offset* in every PE's segment — the
  literal Figure 2 property, enforced by construction;
* a remote ``put``/``get`` is a direct cross-segment memcpy by the
  initiating PE (one-sided: the target's CPU is not involved), made
  visible by bumping the initiator's progress counter;
* ``barrier`` is the sense-reversing shared-memory barrier of
  :class:`~repro.backends.shm.ShmBarrier`.

:class:`MPContext` implements the PE context protocol (see
:mod:`repro.backends.base`), so every compiled schedule and collective
front-end runs unmodified.  Time here is *wall-clock*: ``compute`` and
the ``charge_*`` methods cost nothing, and ``time_ns`` reads the host
clock.

Failure containment.  A worker that raises stamps the shared abort flag
with the current run id before reporting, so peers spinning in barriers
unwind with :class:`~repro.errors.WorkerAbortedError` instead of
hanging; the parent then quiesces every worker, zeroes the shared
synchronisation state and re-raises as
:class:`~repro.errors.WorkerFailedError` — the session stays usable.  A
worker stuck in user code past the watchdog is terminated and the pool
rebuilt.  Teardown closes and unlinks every segment exactly once, from
whichever of explicit ``close``, context-manager exit or ``atexit``
runs first.
"""

from __future__ import annotations

import atexit
import os
import pickle
import queue as queue_mod
import time
import traceback
from collections import Counter
from typing import Any, Callable, Sequence

import multiprocessing as mp

import numpy as np

from ..errors import (
    BackendTimeoutError,
    RuntimeStateError,
    WorkerAbortedError,
    WorkerFailedError,
)
from ..isa.cpu import amo_apply
from ..isa.memory import Memory
from ..params import MachineConfig
from ..runtime.collective_api import CollectiveAPI
from ..runtime.symmetric_heap import segment_layout
from ..runtime.transfer import MASK64, TransferHandle
from .base import Backend, BackendSession, resolve_config
from .shm import ControlBlock, SegmentGroup, ShmBarrier, control_bytes

__all__ = ["MultiprocessingBackend", "MPSession", "MPContext"]

#: Extra seconds past the run watchdog before stuck workers are killed.
_GRACE = 5.0

#: Watchdog floor on memcpy bandwidth: a run moving N payload bytes gets
#: N / this many extra seconds before the deadlock detector fires.  Far
#: below any real shared-memory bandwidth on purpose — the deadline only
#: needs to *not* false-trip on an oversubscribed host where workers of
#: several concurrent jobs share one core.
TIMEOUT_BYTES_PER_S = 4 * 1024 * 1024


def scaled_timeout(base: float, payload_nbytes: int = 0) -> float:
    """Watchdog seconds for a run moving ``payload_nbytes`` of payload.

    A flat deadline false-trips large-payload jobs queued behind other
    tenants on a busy pool (the peers of a PE still memcpying a big
    buffer sit in the entry barrier and hit the constant); scaling the
    deadline with the payload keeps the detector honest for deadlocks
    while never racing legitimate bulk transfers.
    """
    return base + max(0, payload_nbytes) / TIMEOUT_BYTES_PER_S


class _ShmTransfer:
    """The data-movement seam over shared segments.

    Same call shape as :class:`~repro.runtime.transfer.TransferEngine`
    (the context core validates arguments and resolves dtypes before
    calling either).  A remote put/get is a cross-segment memcpy by the
    initiating PE, made visible by bumping its progress counter; it is
    synchronous, so the non-blocking calls finish before returning and
    their handles are born complete.
    """

    def __init__(self, rank: int, memories: Sequence[Memory],
                 ctl: ControlBlock, amo_locks: Sequence[Any]):
        self.rank = rank
        self._memories = memories
        self._ctl = ctl
        self._amo_locks = amo_locks

    def _memcpy(self, dpe: int, dest: int, spe: int, src: int, nelems: int,
                stride: int, dtype: np.dtype) -> None:
        if nelems == 0:
            return
        mems = self._memories
        mems[dpe].view(dest, dtype, nelems, stride)[:] = \
            mems[spe].view(src, dtype, nelems, stride)
        self._ctl.bump_progress(self.rank)

    def put(self, dest: int, src: int, nelems: int, stride: int, target: int,
            dtype: np.dtype) -> None:
        self._memcpy(target, dest, self.rank, src, nelems, stride, dtype)

    def get(self, dest: int, src: int, nelems: int, stride: int, target: int,
            dtype: np.dtype) -> None:
        self._memcpy(self.rank, dest, target, src, nelems, stride, dtype)

    def put_nb(self, dest: int, src: int, nelems: int, stride: int,
               target: int, dtype: np.dtype) -> TransferHandle:
        self.put(dest, src, nelems, stride, target, dtype)
        return TransferHandle("put", nelems * dtype.itemsize, 0.0, done=True)

    def get_nb(self, dest: int, src: int, nelems: int, stride: int,
               target: int, dtype: np.dtype) -> TransferHandle:
        self.get(dest, src, nelems, stride, target, dtype)
        return TransferHandle("get", nelems * dtype.itemsize, 0.0, done=True)

    def amo(self, addr: int, value: int, target: int, op: str) -> int:
        """Fetch-and-op serialised by the target PE's AMO lock."""
        mem = self._memories[target]
        mem.check(addr, 8)
        with self._amo_locks[target]:
            old = mem.load(addr, 8)
            mem.store(addr, 8, amo_apply(op, old, int(value) & MASK64))
        self._ctl.bump_progress(self.rank)
        return old

    def wait(self, handle: TransferHandle) -> None:
        handle.done = True

    def quiet(self) -> None:
        """Nothing is ever outstanding: memcpys already landed."""


class MPContext(CollectiveAPI):
    """Per-PE runtime context over shared-memory segments.

    One instance per (worker process, run).  The segment mappings and
    barrier are worker-lifetime (passed in); allocator state — heap
    replica, scratch stacks, private free list — is rebuilt fresh each
    run, exactly as a fresh simulated machine would.  Heap replicas stay
    identical across PEs because collective mallocs replay the same call
    log in the same order on every participant.

    Overrides exactly the wall-clock seams of the context core: the
    clock (``time_ns`` reads the host, ``compute``/``charge_*`` are
    free, this process *is* the executing rank), the barrier
    (:class:`~repro.backends.shm.ShmBarrier`) and data movement
    (:class:`_ShmTransfer`).

    ``sync_group`` (a tuple of world ranks, this PE included) makes the
    context **team-scoped**: ``init``/``close``/``barrier`` synchronise
    only the group (over the pairwise signal table, never the world
    barrier), and every collective called without an explicit ``group``
    defaults to it with group-relative roots.  Team-scoped contexts on
    disjoint rank sets share one session concurrently without touching
    each other's synchronisation state — the serving layer
    (:mod:`repro.serve`) is built on exactly this.  Heap replicas still
    agree because only the group's members run the program, and their
    segments are disjoint from every other group's.
    """

    backend_name = "mp"

    def __init__(self, rank: int, config: MachineConfig,
                 memories: Sequence[Memory], ctl: ControlBlock,
                 barrier: ShmBarrier, amo_locks: Sequence[Any],
                 sync_group: Sequence[int] | None = None):
        layout = segment_layout(config)
        self._init_core(rank, config, memories,
                        layout.symmetric_heap(config.n_pes),
                        layout.scratch_stack(), layout.private_allocator(),
                        Counter())
        if sync_group is not None:
            self.default_group = tuple(sync_group)
        self._barrier = barrier
        self._transfer = _ShmTransfer(rank, memories, ctl, amo_locks)
        self._t0 = time.perf_counter()

    def release(self) -> None:
        """Drop the segment memories (required before unmapping segments)."""
        self._memories = self._memory = self._transfer = None
        self._views.clear()
        self._prepared.clear()  # their bound ops hold views too

    # -- clock seam: wall time, free cost charging -------------------------------

    def executing_rank(self) -> int | None:
        # Each process *is* one PE: nothing else ever runs here.
        return self.rank

    @property
    def time_ns(self) -> float:
        """Wall-clock nanoseconds since this context was created."""
        return (time.perf_counter() - self._t0) * 1e9

    def compute(self, ns: float) -> None:
        """Modelled compute costs nothing here: real work takes real time."""

    def charge_access(self, addr: int, nbytes: int = 8,
                      write: bool = False) -> float:
        return 0.0

    def charge_stream(self, addr: int, nbytes: int,
                      write: bool = False) -> float:
        return 0.0

    # -- barrier seam ------------------------------------------------------------

    def _sync(self) -> None:
        """The context's own barrier: world, or the sync group's."""
        if self.default_group is None:
            self._barrier.world()
        else:
            self._barrier.team(self.default_group)

    def barrier_team(self, members: Sequence[int]) -> None:
        self._require_active()
        self._barrier.team(tuple(members))


# -- worker process -----------------------------------------------------------


def _worker_main(rank: int, config: MachineConfig, token: str,
                 baseline: tuple, barrier_lock, amo_locks, task_q,
                 result_q) -> None:
    """The PE worker loop: attach segments, then serve tasks forever.

    Messages on ``task_q``:

    * ``("run", run_id, fn, args, timeout, sync_group)`` — run
      ``fn(ctx, *args)`` against a fresh context (team-scoped when
      ``sync_group`` is a rank tuple); report ``("ok" | "err" |
      "aborted", rank, run_id, payload)``.  An ``"ok"`` payload is the
      result already pickled (the picklability check *is* the
      serialisation, so it happens once); the parent unpickles it.
    * ``("reset", seq)`` — forget local barrier state (global session
      recovery, shared cells about to be zeroed); acked with
      ``("reset-ok", rank, seq, None)``.
    * ``("resync", seq)`` — adopt the *current* shared barrier state
      (slot-local recovery after a team-scoped failure, shared cells
      kept); acked with ``("resync-ok", rank, seq, None)``.
    * ``None`` — exit cleanly.

    A failing run stamps the abort cells of *its own ranks only* before
    reporting, so peers of the same run unwind promptly while workers
    serving other (team-scoped) runs never notice;
    ``WorkerAbortedError`` unwinds are reported as ``"aborted"`` so the
    parent can tell the primary failure from collateral ones.
    """
    segs = SegmentGroup(token, config.n_pes, config.memory_bytes_per_pe,
                        control_bytes(config.n_pes), create=False)
    ctl = ControlBlock(segs.control, config.n_pes)
    barrier = ShmBarrier(ctl, rank, config.n_pes, barrier_lock)
    # The barrier state the parent read at spawn: a replacement worker
    # attaching mid-session adopts the live state as it was then.
    barrier.attach_sync(baseline)
    memories = [
        Memory(buf=np.frombuffer(seg.buf, dtype=np.uint8)
               [:config.memory_bytes_per_pe])
        for seg in segs.segments
    ]
    try:
        while True:
            task = task_q.get()
            if task is None:
                return
            if task[0] == "reset":
                barrier.reset_local()
                result_q.put(("reset-ok", rank, task[1], None))
                continue
            if task[0] == "resync":
                barrier.attach_sync()
                result_q.put(("resync-ok", rank, task[1], None))
                continue
            _, run_id, fn, args, timeout, sync_group = task
            barrier.run_id = run_id
            barrier.timeout = timeout
            ctx = MPContext(rank, config, memories, ctl, barrier, amo_locks,
                            sync_group=sync_group)
            try:
                result = fn(ctx, *args)
                try:
                    payload = pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
                except Exception as exc:
                    ctl.abort_ranks(sync_group, run_id)
                    msg = ("err", rank, run_id,
                           f"PE {rank} returned an unpicklable result: "
                           f"{exc!r}")
                else:
                    msg = ("ok", rank, run_id, payload)
            except WorkerAbortedError:
                msg = ("aborted", rank, run_id, traceback.format_exc())
            except BaseException:
                ctl.abort_ranks(sync_group, run_id)
                msg = ("err", rank, run_id, traceback.format_exc())
            finally:
                ctx.release()
            result_q.put(msg)
    finally:
        del memories  # exported views must die before the mappings close
        ctl.release()
        segs.close()


# -- the session --------------------------------------------------------------


class MPTicket:
    """One in-flight run on a subset (or all) of the session's PEs.

    Created by :meth:`MPSession.submit`; completed by
    :meth:`MPSession.wait` (or polled via :meth:`MPSession.pump` +
    :attr:`complete`).  Holds per-rank results and failure diagnostics
    while messages trickle in.
    """

    __slots__ = ("run_id", "ranks", "sync_group", "limit", "deadline",
                 "payload_nbytes", "results", "failures", "aborted",
                 "outstanding", "dead", "timed_out")

    def __init__(self, run_id: int, ranks: tuple[int, ...],
                 sync_group: tuple[int, ...] | None, limit: float,
                 deadline: float, payload_nbytes: int):
        self.run_id = run_id
        self.ranks = ranks
        self.sync_group = sync_group
        self.limit = limit
        self.deadline = deadline
        self.payload_nbytes = payload_nbytes
        self.results: dict[int, Any] = {}
        self.failures: dict[int, str] = {}
        self.aborted: dict[int, str] = {}
        self.outstanding: set[int] = set(ranks)
        self.dead: set[int] = set()
        self.timed_out = False

    @property
    def complete(self) -> bool:
        """Every rank accounted for (result, failure or death)."""
        return not self.outstanding

    @property
    def ok(self) -> bool:
        return (self.complete and not self.failures and not self.aborted
                and not self.timed_out)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MPTicket(run={self.run_id}, ranks={self.ranks}, "
                f"outstanding={sorted(self.outstanding)})")


class MPSession(BackendSession):
    """A persistent pool of PE worker processes over shared segments.

    Workers and segments are created once and reused across ``run``
    calls (conformance sweeps and benchmarks amortise the start-up).
    Teardown (explicit ``close``, ``with`` exit or the ``atexit`` hook —
    whichever comes first) terminates every worker and unlinks every
    segment exactly once; ``close`` is idempotent.

    Beyond whole-world ``run``, the session multiplexes **concurrent
    team-scoped runs** over disjoint rank subsets
    (:meth:`submit`/:meth:`wait`): each run gets its own run id, its
    own abort cells and a team-scoped context, so independent jobs
    share the pool without sharing failure domains.  A failed subset
    run is repaired *in place* — dead worker slots are rebuilt one at a
    time against the existing shared-memory segments (the layout is
    keyed only by the immutable config, so nothing is unlinked or
    re-created) and survivors resync their barrier baseline — while
    runs on other ranks proceed undisturbed.
    """

    def __init__(self, config: MachineConfig, *, timeout: float = 60.0,
                 start_method: str | None = None):
        self.config = config
        self.timeout = timeout
        method = (start_method or os.environ.get("XBGAS_MP_START")
                  or "fork")
        self._mp = mp.get_context(method)
        self._run_id = 0
        token = SegmentGroup.new_token()
        self.token = token
        self._segs = SegmentGroup(
            token, config.n_pes, config.memory_bytes_per_pe,
            control_bytes(config.n_pes), create=True,
        )
        self._ctl = ControlBlock(self._segs.control, config.n_pes)
        self._barrier_lock = self._mp.Lock()
        self._amo_locks = [self._mp.Lock() for _ in range(config.n_pes)]
        self._result_q = self._mp.Queue()
        self._task_qs: list[Any] = []
        self._workers: list[Any] = []
        self._tickets: dict[int, MPTicket] = {}
        self._busy: set[int] = set()
        self._acks: set[tuple[str, int, int]] = set()
        self._ack_seq = 0
        try:
            for rank in range(config.n_pes):
                self._task_qs.append(self._mp.SimpleQueue())
                self._workers.append(self._spawn(rank))
        except BaseException:
            self._teardown()
            raise
        atexit.register(self.close)

    # -- worker management --------------------------------------------------

    def _spawn(self, rank: int):
        proc = self._mp.Process(
            target=_worker_main,
            args=(rank, self.config, self.token, self._ctl.baseline(rank),
                  self._barrier_lock, self._amo_locks, self._task_qs[rank],
                  self._result_q),
            name=f"xbgas-pe{rank}",
            daemon=True,
        )
        proc.start()
        return proc

    def _rebuild_pool(self, kill: bool = True) -> None:
        """Replace every worker and zero the shared sync state.

        The heavyweight recovery path — used when workers are stuck in
        user code (watchdog) or have died: per-worker reset messages
        cannot be trusted to be read.  The shared-memory segments are
        **reused**, never unlinked: their layout depends only on the
        immutable session config, so the replacement workers re-attach
        to the same ``/dev/shm`` entries.
        """
        # Ask live workers to exit on their own before terminating: a
        # worker SIGTERM'd mid result-queue put can die holding the
        # queue's feeder lock, wedging every future reporter.  Idle
        # workers (the common recovery case) read the sentinel and
        # leave cleanly; only ones stuck in user code get terminated.
        if kill:
            for q, proc in zip(self._task_qs, self._workers):
                if proc.is_alive():
                    try:
                        q.put(None)
                    except Exception:
                        pass
        deadline = time.monotonic() + _GRACE
        for proc in self._workers:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=_GRACE)
        self._drain_results()
        self._tickets.clear()
        self._busy.clear()
        self._acks.clear()
        # Every writer is gone, so swap in a fresh result queue: even a
        # worker that did die holding the old queue's lock cannot
        # poison the replacement pool.
        self._result_q = self._mp.Queue()
        self._ctl.reset_sync_state()
        self._ctl.clear_abort()
        for rank in range(self.config.n_pes):
            self._task_qs[rank] = self._mp.SimpleQueue()
            self._workers[rank] = self._spawn(rank)

    def _rebuild_slot(self, rank: int) -> None:
        """Replace one worker in place; every other slot keeps running.

        Reuses the existing shared segments (layout unchanged — nothing
        is unlinked or re-created) and leaves shared sync state alone:
        the replacement adopts the live barrier baseline read at spawn
        (``attach_sync``).  This is the crash-isolation path of
        team-scoped serving — one tenant's dead worker must not quiesce
        the pool.
        """
        proc = self._workers[rank]
        if proc.is_alive():
            proc.terminate()
        proc.join(timeout=_GRACE)
        self._task_qs[rank] = self._mp.SimpleQueue()
        self._workers[rank] = self._spawn(rank)

    def _drain_results(self) -> None:
        while True:
            try:
                self._result_q.get_nowait()
            except queue_mod.Empty:
                return

    def _await_acks(self, kind: str, ranks: Sequence[int],
                    task: tuple) -> list[int]:
        """Send ``task`` to ``ranks``; collect acks.  Returns laggards."""
        if not ranks:
            return []
        seq = task[1]
        for rank in ranks:
            self._task_qs[rank].put(task)
        pending = set(ranks)
        deadline = time.monotonic() + _GRACE
        while pending and time.monotonic() <= deadline:
            self.pump(0.05)
            for rank in list(pending):
                key = (kind, rank, seq)
                if key in self._acks:
                    self._acks.discard(key)
                    pending.discard(rank)
        return sorted(pending)

    def _recover(self) -> None:
        """Quiesce live workers after a failed world run; reset sync state.

        Every worker has already reported for the failed run (so none is
        inside a barrier); the reset round trips make sure each has also
        forgotten its local barrier sense before the shared counters are
        zeroed.  Only valid with no subset tickets outstanding — world
        runs exclude them by construction.
        """
        dead = [p for p in self._workers if not p.is_alive()]
        if dead:
            self._rebuild_pool()
            return
        self._ack_seq += 1
        laggards = self._await_acks(
            "reset-ok", range(self.config.n_pes), ("reset", self._ack_seq))
        if laggards:
            self._rebuild_pool()
            return
        self._ctl.reset_sync_state()
        self._ctl.clear_abort()

    def _repair_subset(self, ticket: MPTicket) -> None:
        """Slot-level recovery after a failed team-scoped run.

        Dead members' slots are rebuilt in place; survivors (already
        idle — they reported for the failed run) discard the stale
        barrier signals their dead peers left behind.  Shared state of
        every rank outside the ticket is untouched.
        """
        for rank in sorted(ticket.dead):
            self._rebuild_slot(rank)
        survivors = [r for r in ticket.ranks if r not in ticket.dead]
        self._ack_seq += 1
        for rank in self._await_acks("resync-ok", survivors,
                                     ("resync", self._ack_seq)):
            self._rebuild_slot(rank)  # unresponsive survivor: replace too
        self._ctl.clear_abort(ticket.ranks)

    # -- running programs ---------------------------------------------------

    def submit(self, fn: Callable[..., Any],
               args_per_pe: Sequence[tuple] | None = None, *,
               ranks: Sequence[int] | None = None,
               timeout: float | None = None,
               payload_nbytes: int = 0) -> MPTicket:
        """Dispatch ``fn(ctx, *extra)`` without waiting for completion.

        ``ranks=None`` targets every PE (world semantics, identical to
        :meth:`run`); a rank tuple dispatches a **team-scoped** run on
        just those workers — their contexts synchronise only the group,
        and collectives default to it (group-relative roots).  Subset
        runs on disjoint ranks proceed concurrently; overlapping an
        outstanding run's ranks raises :class:`RuntimeStateError`.

        ``payload_nbytes`` (the job's total payload footprint) scales
        the watchdog deadline via :func:`scaled_timeout` so bulk
        transfers on a busy host never false-trip the deadlock detector.
        """
        self._require_open()
        n = self.config.n_pes
        world = ranks is None
        members = tuple(range(n)) if world else tuple(ranks)
        if not members:
            raise ValueError("cannot submit a run on zero ranks")
        if len(set(members)) != len(members):
            raise ValueError(f"duplicate ranks in {members}")
        for r in members:
            if not 0 <= r < n:
                raise ValueError(f"rank {r} out of range [0, {n})")
        overlap = set(members) & self._busy
        if overlap:
            raise RuntimeStateError(
                f"PEs {sorted(overlap)} are still busy with an outstanding "
                "run; subset runs must use disjoint ranks"
            )
        if world and self._tickets:
            raise RuntimeStateError(
                "cannot start a whole-world run while subset runs are "
                "outstanding"
            )
        if args_per_pe is not None and len(args_per_pe) != len(members):
            raise ValueError(
                f"args_per_pe has {len(args_per_pe)} entries for "
                f"{len(members)} participating PEs"
            )
        limit = scaled_timeout(self.timeout if timeout is None else timeout,
                               payload_nbytes)
        self._run_id += 1
        run_id = self._run_id
        sync_group = None if world else members
        ticket = MPTicket(run_id, members, sync_group, limit,
                          time.monotonic() + limit + _GRACE, payload_nbytes)
        self._tickets[run_id] = ticket
        self._busy |= set(members)
        for i, rank in enumerate(members):
            extra = tuple(args_per_pe[i]) if args_per_pe is not None else ()
            self._task_qs[rank].put(
                ("run", run_id, fn, extra, limit, sync_group))
        return ticket

    def pump(self, block_s: float = 0.0) -> None:
        """Route pending worker messages; police liveness and deadlines.

        Safe to call at any time; :meth:`wait` calls it in a loop.  A
        poll-style driver (the serving layer's dispatcher) calls it
        directly and checks each ticket's :attr:`MPTicket.complete`.
        """
        self._check_tickets()
        first = True
        while True:
            try:
                if first and block_s > 0:
                    msg = self._result_q.get(timeout=block_s)
                else:
                    msg = self._result_q.get_nowait()
            except queue_mod.Empty:
                break
            first = False
            kind, rank, rid, payload = msg
            if kind in ("reset-ok", "resync-ok"):
                self._acks.add((kind, rank, rid))
                continue
            ticket = self._tickets.get(rid)
            if ticket is None or rank not in ticket.outstanding:
                continue  # stale message from an abandoned run
            ticket.outstanding.discard(rank)
            if kind == "ok":
                ticket.results[rank] = pickle.loads(payload)
            elif kind == "aborted":
                ticket.aborted[rank] = payload
            else:
                ticket.failures[rank] = payload
        self._check_tickets()

    def _check_tickets(self) -> None:
        """Account dead workers and expired deadlines on every ticket."""
        now = time.monotonic()
        for ticket in self._tickets.values():
            for rank in sorted(ticket.outstanding):
                proc = self._workers[rank]
                if not proc.is_alive():
                    # A dead worker sends nothing: notice, abort its
                    # run's peers (only), and account for it.
                    self._ctl.abort_ranks(ticket.ranks, ticket.run_id)
                    ticket.failures[rank] = (
                        f"PE {rank} worker process died "
                        f"(exitcode {proc.exitcode})"
                    )
                    ticket.dead.add(rank)
                    ticket.outstanding.discard(rank)
            if ticket.outstanding and now > ticket.deadline:
                ticket.timed_out = True
                self._ctl.abort_ranks(ticket.ranks, ticket.run_id)
                for rank in sorted(ticket.outstanding):
                    proc = self._workers[rank]
                    if proc.is_alive():
                        proc.terminate()
                        proc.join(timeout=_GRACE)
                    ticket.failures[rank] = (
                        f"PE {rank} never reported within the "
                        f"{ticket.limit:.0f}s watchdog (stuck in user code?)"
                    )
                    ticket.dead.add(rank)
                    ticket.outstanding.discard(rank)

    def wait(self, ticket: MPTicket) -> list[Any]:
        """Block until ``ticket`` completes; return per-rank results.

        Raises :class:`WorkerFailedError` if any participating PE
        raised or died, :class:`BackendTimeoutError` if the run
        outlived its watchdog — in both cases after repairing the pool
        (globally for world runs, slot-by-slot for subset runs).
        """
        while not ticket.complete:
            self.pump(0.2)
        return self.finish(ticket)

    def finish(self, ticket: MPTicket) -> list[Any]:
        """Finalize a *complete* ticket: repair on failure, return results."""
        if not ticket.complete:
            raise RuntimeStateError(
                f"run {ticket.run_id} is still outstanding on PEs "
                f"{sorted(ticket.outstanding)}; wait() or pump() first"
            )
        if self._tickets.pop(ticket.run_id, None) is None:
            raise RuntimeStateError(
                f"run {ticket.run_id} was already finalized"
            )
        try:
            if ticket.ok:
                return [ticket.results[rank] for rank in ticket.ranks]
            if ticket.sync_group is None \
                    or len(ticket.ranks) == self.config.n_pes:
                # World semantics — including full-width team runs: a
                # full-width team synchronises through the world
                # sense-reversing barrier (ShmBarrier.team delegates),
                # so a failure can leave a partial wb_count that
                # slot-level repair cannot clear.  Disjointness means a
                # full-width ticket had no concurrent tenants, so the
                # global reset is safe.
                if ticket.timed_out:
                    self._rebuild_pool()
                    raise BackendTimeoutError(
                        f"run {ticket.run_id} exceeded {ticket.limit:.0f}s; "
                        f"PEs {sorted(ticket.dead)} never reported (stuck "
                        "in user code?) — worker pool rebuilt"
                    )
                self._recover()
                raise WorkerFailedError(ticket.failures or ticket.aborted)
            # Team-scoped: repair only this run's slots.
            self._repair_subset(ticket)
            if ticket.timed_out:
                raise BackendTimeoutError(
                    f"run {ticket.run_id} on PEs {list(ticket.ranks)} "
                    f"exceeded its {ticket.limit:.0f}s watchdog; stuck "
                    f"worker slot(s) {sorted(ticket.dead)} rebuilt in place"
                )
            raise WorkerFailedError(ticket.failures or ticket.aborted)
        finally:
            self._busy -= set(ticket.ranks)

    def run(self, fn: Callable[..., Any],
            args_per_pe: Sequence[tuple] | None = None, *,
            timeout: float | None = None,
            payload_nbytes: int = 0) -> list[Any]:
        """Run ``fn(ctx, *extra)`` on every PE worker; per-rank results.

        ``fn`` and its arguments must be picklable (module-level
        functions — the same restriction real ``multiprocessing`` code
        has).  Raises :class:`WorkerFailedError` if any PE raises,
        :class:`BackendTimeoutError` if the run outlives the watchdog.
        """
        return self.wait(self.submit(fn, args_per_pe, timeout=timeout,
                                     payload_nbytes=payload_nbytes))

    # -- teardown ------------------------------------------------------------

    def _teardown(self) -> None:
        for q, proc in zip(self._task_qs, self._workers):
            if proc.is_alive():
                try:
                    q.put(None)
                except Exception:
                    pass
        for proc in self._workers:
            proc.join(timeout=_GRACE)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=_GRACE)
        self._result_q.close()
        self._result_q.join_thread()
        self._ctl.release()
        self._segs.close()
        self._segs.unlink()

    def close(self) -> None:
        """Stop the workers and unlink the segments (idempotent)."""
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self.close)
        self._teardown()


class MultiprocessingBackend(Backend):
    """True-parallel worker processes over shared memory (``"mp"``).

    Session options: ``timeout`` (per-run watchdog seconds, default 60)
    and ``start_method`` (``"fork"`` default; also via the
    ``XBGAS_MP_START`` environment variable).
    """

    name = "mp"

    def session(self, config: MachineConfig | None = None, *,
                n_pes: int | None = None, **opts: Any) -> MPSession:
        return MPSession(resolve_config(config, n_pes), **opts)
