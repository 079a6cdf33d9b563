"""Deterministic cooperative scheduler for PE programs.

The engine implements conservative parallel discrete-event simulation with
one OS thread per PE but *no* real concurrency: threads take turns, and
the scheduler always resumes the runnable PE whose simulated clock is
smallest (ties broken by rank).  PE programs therefore interleave in a
single deterministic global order that is a legal linearization of the
simulated machine's behaviour.

PE code interacts with the engine through three primitives:

* :meth:`PEProcess.advance` — add local compute time to the PE's clock
  (no context switch; cheap enough for per-memory-access costing).
* :meth:`Engine.checkpoint` — yield so PEs with smaller clocks can run.
  Every communication operation is a checkpoint.
* :meth:`Engine.suspend` / :meth:`Engine.resume` — block the calling PE
  until another PE wakes it (used by barriers and two-sided receives).

A PE thread may also run *other* PEs' steps for them while they stay
blocked (the schedule executor's barrier-to-barrier replay does):
:meth:`Engine.act_as` says whose step the thread is on, and
:meth:`Engine.yield_to` ends the arrangement by naming the blocked PE
that runs next.

Deadlock (no runnable PE while some are blocked) raises
:class:`~repro.errors.DeadlockError` instead of hanging.

Two scheduling strategies produce the identical event order:

* **Direct handoff** (default): the runnable set lives in a heap keyed
  by ``(clock, rank)``; a PE that yields dispatches the next PE's resume
  event itself — one OS context switch per yield — and the scheduler
  thread is only woken when a PE blocks with no successor or finishes.
* **Scheduler bounce** (``direct_handoff=False``): every yield returns
  to the scheduler thread, which rescans all PEs — the original
  reference implementation, kept as the oracle for the determinism
  tests.
"""

from __future__ import annotations

import enum
import heapq
import threading
from typing import Any, Callable, Sequence

from ..errors import DeadlockError, PECrashedError, SimulationError
from .spans import SpanTracker
from .trace import EventTrace, SimStats

__all__ = ["PEState", "PEProcess", "Engine"]


class PEState(enum.Enum):
    """Lifecycle of one PE process."""

    NEW = "new"
    RUNNABLE = "runnable"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"
    FAILED = "failed"


class PEProcess:
    """Handle for one PE's thread, clock and state."""

    def __init__(self, engine: "Engine", rank: int):
        self.engine = engine
        self.rank = rank
        self.clock: float = 0.0
        self.state = PEState.NEW
        self.result: Any = None
        self.error: BaseException | None = None
        # Binary baton: held (locked) while the PE is parked; releasing
        # it is the dispatch.  A bare lock is one futex op per
        # park/dispatch pair — measurably cheaper than an Event's
        # condition machinery on the yield-heavy hot path.
        self._baton = threading.Lock()
        self._baton.acquire()
        self._thread: threading.Thread | None = None
        #: Opaque slot for the runtime layer to attach its per-PE context.
        self.context: Any = None

    # -- clock ---------------------------------------------------------

    def advance(self, dt: float) -> None:
        """Add ``dt`` ns of local work to this PE's clock (no yield)."""
        if dt < 0:
            raise SimulationError(f"PE{self.rank}: negative time advance {dt}")
        self.clock += dt

    def advance_to(self, t: float) -> None:
        """Move the clock forward to at least ``t``."""
        if t > self.clock:
            self.clock = t

    # -- thread plumbing (engine-internal) ------------------------------

    def _start(self, fn: Callable[..., Any], args: tuple) -> None:
        def body() -> None:
            self._baton.acquire()
            try:
                self.result = fn(*args)
                self.state = PEState.DONE
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                self.error = exc
                self.state = PEState.FAILED
            finally:
                self.engine._sched_wake.set()

        self._thread = threading.Thread(
            target=body, name=f"pe-{self.rank}", daemon=True
        )
        self.state = PEState.RUNNABLE
        self._thread.start()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PEProcess(rank={self.rank}, clock={self.clock:.1f}, {self.state.value})"


class Engine:
    """Owns the PE processes and runs the cooperative schedule."""

    def __init__(self, n_pes: int, *, trace: bool = False,
                 direct_handoff: bool = True):
        if n_pes <= 0:
            raise SimulationError("need at least one PE")
        self.n_pes = n_pes
        self.pes = [PEProcess(self, r) for r in range(n_pes)]
        self.trace = EventTrace(enabled=trace)
        self.spans = SpanTracker(self)
        self.stats = SimStats()
        self._sched_wake = threading.Event()
        self._current: PEProcess | None = None
        self._running = False
        self._direct = direct_handoff
        #: Blocked PE that the next :meth:`checkpoint` dispatches
        #: whatever the runnable clocks are (set by :meth:`yield_to`).
        self._successor: PEProcess | None = None
        #: Runnable-set heap of ``(clock, rank)`` entries (direct mode).
        #: Entries are lazily invalidated: one is live iff its PE is
        #: RUNNABLE and its recorded clock matches the PE's clock.
        self._runq: list[tuple[float, int]] = []

    # -- program entry ---------------------------------------------------

    def run(
        self,
        fn: Callable[..., Any],
        args_per_pe: Sequence[tuple] | None = None,
    ) -> list[Any]:
        """Run ``fn`` on every PE and return the per-rank results.

        ``fn`` is invoked as ``fn(pe_process, *extra)`` where ``extra`` is
        ``args_per_pe[rank]`` (empty by default).  Raises the first PE
        failure (annotated with its rank) or :class:`DeadlockError`.

        A PE that died of an *injected crash*
        (:class:`~repro.errors.PECrashedError`) is not a simulation
        failure: its result slot stays ``None`` and the run completes
        with the survivors' results.
        """
        if self._running:
            raise SimulationError("engine is not reentrant")
        self._running = True
        try:
            self._runq.clear()
            for pe in self.pes:
                extra = tuple(args_per_pe[pe.rank]) if args_per_pe else ()
                pe._start(fn, (pe, *extra))
                if self._direct:
                    heapq.heappush(self._runq, (pe.clock, pe.rank))
            self._schedule_loop()
        finally:
            self._running = False
        for pe in self.pes:
            if pe.state is PEState.FAILED:
                assert pe.error is not None
                if isinstance(pe.error, PECrashedError):
                    continue  # injected crash; survivors' results stand
                raise SimulationError(
                    f"PE {pe.rank} failed at t={pe.clock:.1f} ns"
                ) from pe.error
        return [pe.result for pe in self.pes]

    # -- primitives used by the runtime layer ----------------------------

    @property
    def current(self) -> PEProcess:
        """The PE process whose thread is currently executing."""
        if self._current is None:
            raise SimulationError("no PE is running (call from PE code only)")
        return self._current

    @property
    def direct_handoff(self) -> bool:
        """Whether a yielding PE dispatches its successor itself."""
        return self._direct

    def act_as(self, rank: int) -> None:
        """Attribute what the calling PE thread does next to PE ``rank``.

        For a thread that runs the steps of PEs blocked behind it:
        :attr:`current` (and with it every trace record) then names the
        PE whose step it is.  The thread passes its own rank to take
        its identity back.
        """
        self._current = self.pes[rank]

    def yield_to(self, rank: int) -> None:
        """Hand the machine to blocked PE ``rank``: it runs next,
        whatever the runnable clocks are, and the caller stays runnable
        at its own clock.

        The order a barrier release leaves behind when its releaser is
        not the calling thread's PE: the releaser keeps running and
        everyone else, the caller included, queues up by ``(clock,
        rank)``.  The caller parks inside :meth:`checkpoint`.
        """
        me = self.current
        nxt = self.pes[rank]
        if (not self._direct or me.state is not PEState.RUNNING
                or nxt.state is not PEState.BLOCKED):
            raise SimulationError(
                f"PE {me.rank} ({me.state.value}) cannot yield to PE "
                f"{rank} ({nxt.state.value})"
            )
        self._successor = nxt
        self.checkpoint()

    def checkpoint(self) -> None:
        """Yield; the scheduler resumes the smallest-clock runnable PE.

        Called from PE threads at every communication point.  Cheap fast
        path: if the calling PE still has the smallest clock it keeps
        running without a context switch.
        """
        me = self._current
        if me is None:
            me = self.current  # raises: not called from PE code
        if self._direct:
            q = self._runq
            nxt = self._successor
            if nxt is not None:
                self._successor = None
                heapq.heappush(q, (me.clock, me.rank))
            else:
                # Settle the live heap root (see ``_pop_next``); keep
                # running unless it is strictly earlier than the caller.
                pes = self.pes
                while q:
                    clock, rank = q[0]
                    nxt = pes[rank]
                    if nxt.state is not PEState.RUNNABLE:
                        heapq.heappop(q)
                    elif nxt.clock != clock:
                        heapq.heapreplace(q, (nxt.clock, rank))
                    elif clock < me.clock:
                        # The root sorts before the caller's entry, so
                        # one sift swaps them.
                        heapq.heappushpop(q, (me.clock, me.rank))
                        break
                    else:
                        return
                else:
                    return
            # Hand the baton over from this thread, then park.
            me.state = PEState.RUNNABLE
            nxt.state = PEState.RUNNING
            self._current = nxt
            nxt._baton.release()
            me._baton.acquire()
            return
        if self._min_other_runnable_clock() >= me.clock:
            return
        me.state = PEState.RUNNABLE
        self._switch_out(me)

    def suspend(self) -> None:
        """Block the calling PE until :meth:`resume` is called for it."""
        me = self.current
        me.state = PEState.BLOCKED
        if self._direct:
            nxt = self._pop_next()
            if nxt is None:
                # Nothing runnable: let the scheduler thread decide
                # between completion and deadlock.
                self._switch_out(me)
            else:
                self._handoff(me, nxt)
            return
        self._switch_out(me)

    def resume(self, rank: int, at_time: float | None = None) -> None:
        """Make a blocked PE runnable again, optionally at ``at_time``."""
        pe = self.pes[rank]
        if pe.state is not PEState.BLOCKED:
            raise SimulationError(
                f"cannot resume PE {rank} in state {pe.state.value}"
            )
        if at_time is not None:
            pe.advance_to(at_time)
        pe.state = PEState.RUNNABLE
        if self._direct:
            heapq.heappush(self._runq, (pe.clock, pe.rank))

    def record(self, kind: str, detail: str = "") -> None:
        """Trace an event attributed to the current PE."""
        me = self.current
        self.trace.record(me.clock, me.rank, kind, detail)

    @property
    def elapsed_ns(self) -> float:
        """Simulated makespan so far: the maximum PE clock."""
        return max(pe.clock for pe in self.pes)

    # -- scheduler internals ----------------------------------------------

    def _min_other_runnable_clock(self) -> float:
        best = float("inf")
        me = self._current
        for pe in self.pes:
            if pe is me:
                continue
            if pe.state is PEState.RUNNABLE and pe.clock < best:
                best = pe.clock
        return best

    def _pick_next(self) -> PEProcess | None:
        best: PEProcess | None = None
        for pe in self.pes:
            if pe.state is PEState.RUNNABLE:
                if best is None or pe.clock < best.clock:
                    best = pe
        return best

    def _pop_next(self) -> PEProcess | None:
        """Pop the live ``(clock, rank)``-smallest runnable PE, if any."""
        q = self._runq
        pes = self.pes
        while q:
            clock, rank = q[0]
            pe = pes[rank]
            if pe.state is PEState.RUNNABLE:
                if pe.clock == clock:
                    heapq.heappop(q)
                    return pe
                # A runnable PE's clock moved since it was enqueued
                # (defensive: no current caller does this) — re-key it.
                heapq.heapreplace(q, (pe.clock, rank))
            else:
                heapq.heappop(q)
        return None

    def _handoff(self, me: PEProcess, nxt: PEProcess) -> None:
        """Dispatch ``nxt`` directly from ``me``'s thread, then park."""
        nxt.state = PEState.RUNNING
        self._current = nxt
        nxt._baton.release()
        me._baton.acquire()

    def _switch_out(self, me: PEProcess) -> None:
        """Hand control back to the scheduler and wait to be resumed."""
        self._sched_wake.set()
        me._baton.acquire()

    def _schedule_loop(self) -> None:
        while True:
            nxt = self._pop_next() if self._direct else self._pick_next()
            if nxt is None:
                blocked = [p.rank for p in self.pes if p.state is PEState.BLOCKED]
                failed = [p.rank for p in self.pes if p.state is PEState.FAILED]
                # Injected crashes are expected deaths: survivors left
                # blocked behind one still deadlock rather than silently
                # ending the run with half-finished PEs.
                hard_failed = [
                    p.rank for p in self.pes
                    if p.state is PEState.FAILED
                    and not isinstance(p.error, PECrashedError)
                ]
                if blocked and not hard_failed:
                    crashed = [r for r in failed if r not in hard_failed]
                    hint = (f" (PEs {crashed} crashed by fault injection)"
                            if crashed else
                            " (mismatched barrier or receive?)")
                    raise DeadlockError(
                        f"deadlock: PEs {blocked} are blocked and none are "
                        f"runnable{hint}"
                    )
                # All DONE, or a failure left peers blocked — run() will
                # surface the PE error.
                return
            nxt.state = PEState.RUNNING
            self._current = nxt
            self._sched_wake.clear()
            nxt._baton.release()
            self._sched_wake.wait()
            self._current = None
