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

A PE that parks at a point another thread can continue it from parks
with :meth:`Engine.park`, leaving a *continuation*: a one-argument
callable, ``cont(limit) -> PEState``.  Where the engine would wake such
a PE's thread, the thread doing the waking runs the continuation itself
instead (:attr:`Engine.current`, and every trace record, then names the
PE whose step it is, and :attr:`Engine.inline` is true), and wakes the
PE's own thread only when the continuation asks for it.
:meth:`Engine.drive` runs a PE-side *step loop* that way — the schedule
executor's bound plans, the ``send`` of GUPs' primed update-stream
generator — provided it keeps one rule: before an operation that would
yield, it makes that operation's fault checkpoint, then stops if its
clock is past the earliest other runnable PE's.

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

_INF = float("inf")


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
        #: While parked by :meth:`Engine.park`: what runs the PE on from
        #: there, on any thread, given :meth:`Engine.next_clock`.  Returns
        #: the state it leaves the PE in; ``RUNNING`` asks for the PE's
        #: own thread.
        self.cont: Callable[[float], PEState] | None = None
        #: What ``cont`` raised on another thread, for ``park`` to raise.
        self.raised: BaseException | None = None

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
        #: Whether ``_handoff`` is running continuations, which must not
        #: yield or block: the thread running one is not its PE's own.
        self._inline = False
        #: Runnable-set heap of ``(clock, rank)`` entries (direct mode):
        #: exactly the RUNNABLE PEs, each at its clock — a PE is pushed
        #: when it becomes runnable and popped when it is dispatched,
        #: and a runnable PE's clock does not move.
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

    @property
    def inline(self) -> bool:
        """Whether the running code is a continuation on a thread that is
        not its PE's own: it must park, never yield or block in place."""
        return self._inline

    @property
    def run_queue(self) -> list[tuple[float, int]]:
        """The runnable-set heap of ``(clock, rank)`` entries (direct
        handoff; one list for the engine's life).  Read-only to callers:
        ``q and q[0][0] < clock`` is :meth:`checkpoint`'s yield test."""
        return self._runq

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
            if q and q[0][0] < me.clock:
                if self._inline:
                    self._refuse_inline(me)
                # The root sorts before the caller's entry, so one sift
                # swaps them.
                nxt = self.pes[heapq.heappushpop(q, (me.clock, me.rank))[1]]
                me.state = PEState.RUNNABLE
                self._handoff(me, nxt)
            return
        if self._min_other_runnable_clock() >= me.clock:
            return
        me.state = PEState.RUNNABLE
        self._switch_out(me)

    def park(self, cont: Callable[[float], PEState],
             state: PEState) -> None:
        """Park the calling PE as ``state`` — ``RUNNABLE``, yielding to
        an earlier PE as :meth:`checkpoint` does, or ``BLOCKED`` as
        :meth:`suspend` does — leaving ``cont`` to run it on from there.
        Returns when the PE's own thread runs again, raising what
        ``cont`` raised on another thread."""
        me = self._current or self.current  # the property raises
        me.cont = cont
        try:
            if state is PEState.BLOCKED:
                self.suspend()
            else:
                self.checkpoint()
        finally:
            me.cont = None
        exc, me.raised = me.raised, None
        if exc is not None:
            raise exc

    def drive(self, step: Callable[[float], PEState]) -> None:
        """Run the calling PE through ``step`` to its end, parking as a
        continuation wherever it stops (direct handoff only).

        ``step(limit)`` runs the PE on from where it last stopped until
        its clock would pass ``limit`` (:meth:`next_clock`) before a
        step that yields, or until it must wait, and returns
        ``RUNNABLE``, ``BLOCKED`` or — at its end, or to ask for the
        PE's own thread — ``RUNNING``.  The first call runs on that
        thread; while the PE is parked, whichever thread would wake it
        calls ``step(limit)`` itself (:attr:`inline` tells the step
        which), so a PE-side loop of checkpointing operations costs no
        thread switch per yield.  A bound method and a primed
        generator's ``send`` are both such steps.
        """
        while (state := step(self.next_clock())) is not PEState.RUNNING:
            self.park(step, state)

    def suspend(self) -> None:
        """Block the calling PE until :meth:`resume` is called for it."""
        me = self._current or self.current  # the property raises
        if self._inline:
            self._refuse_inline(me)
        me.state = PEState.BLOCKED
        if self._direct:
            self._handoff(me, self._pop_next())
        else:
            self._switch_out(me)

    def resume(self, rank: int, at_time: float | None = None) -> None:
        """Make a blocked PE runnable again, optionally at ``at_time``."""
        self.resume_all((rank,), at_time)

    def resume_all(self, ranks: Sequence[int],
                   at_time: float | None = None) -> None:
        """:meth:`resume` each of ``ranks``: a barrier release wakes all
        its waiters in one call."""
        pes = self.pes
        q = self._runq if self._direct else None
        for rank in ranks:
            pe = pes[rank]
            if pe.state is not PEState.BLOCKED:
                raise SimulationError(
                    f"cannot resume PE {rank} in state {pe.state.value}"
                )
            if at_time is not None and at_time > pe.clock:
                pe.clock = at_time
            pe.state = PEState.RUNNABLE
            if q is not None:
                heapq.heappush(q, (pe.clock, rank))

    def next_clock(self) -> float:
        """The clock of the earliest runnable PE (``inf`` if none): how
        far the running PE may go before :meth:`checkpoint` yields."""
        q = self._runq
        return q[0][0] if q else _INF

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
        """Pop the ``(clock, rank)``-smallest runnable PE, if any."""
        q = self._runq
        return self.pes[heapq.heappop(q)[1]] if q else None

    def _handoff(self, me: PEProcess, nxt: PEProcess | None) -> None:
        """Give the machine to ``nxt`` from ``me``'s thread and return
        when ``me`` runs again.  A parked PE with a continuation is run
        here, on this thread; the next PE without one (or whose
        continuation asks for its own thread) is woken, and ``me``
        parks."""
        q = self._runq
        pes = self.pes
        running, runnable = PEState.RUNNING, PEState.RUNNABLE
        self._inline = True
        while nxt is not me:
            if nxt is None:
                # Nothing runnable: let the scheduler thread decide
                # between completion and deadlock.
                self._inline = False
                self._switch_out(me)
                return
            nxt.state = running
            self._current = nxt  # trace records name the PE whose step it is
            cont = nxt.cont
            if cont is None:
                break
            try:
                state = cont(q[0][0] if q else _INF)
            except BaseException as exc:  # noqa: BLE001 - the PE's own
                nxt.raised = exc            # thread raises it
                break
            if state is running:
                break
            nxt.state = state
            if state is runnable:
                nxt = pes[heapq.heappushpop(q, (nxt.clock, nxt.rank))[1]]
            else:
                nxt = pes[heapq.heappop(q)[1]] if q else None
        else:
            self._inline = False
            me.state = running
            self._current = me
            return
        self._inline = False
        nxt._baton.release()
        me._baton.acquire()

    def _refuse_inline(self, me: PEProcess) -> None:
        # A continuation parks; it never yields or blocks in place.
        raise SimulationError(f"PE {me.rank}: a continuation would yield "
                              "or block on another PE's thread")

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
