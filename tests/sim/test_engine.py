"""Tests for the deterministic PDES engine."""

from __future__ import annotations

import threading

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.engine import Engine, PEState

from ..collectives.helpers import ring_schedule


class TestBasicExecution:
    def test_runs_all_pes(self):
        eng = Engine(4)
        results = eng.run(lambda pe: pe.rank * 10)
        assert results == [0, 10, 20, 30]

    def test_per_pe_args(self):
        eng = Engine(3)
        results = eng.run(lambda pe, x: x + pe.rank, [(100,), (200,), (300,)])
        assert results == [100, 201, 302]

    def test_clock_advances(self):
        eng = Engine(2)

        def body(pe):
            pe.advance(42.5)
            return pe.clock

        assert eng.run(body) == [42.5, 42.5]
        assert eng.elapsed_ns == 42.5

    def test_negative_advance_rejected(self):
        eng = Engine(1)

        def body(pe):
            pe.advance(-1)

        with pytest.raises(SimulationError):
            eng.run(body)

    def test_advance_to_only_moves_forward(self):
        eng = Engine(1)

        def body(pe):
            pe.advance_to(100)
            pe.advance_to(50)
            return pe.clock

        assert eng.run(body) == [100]

    def test_engine_not_reentrant(self):
        eng = Engine(1)

        def body(pe):
            eng.run(lambda p: None)

        with pytest.raises(SimulationError):
            eng.run(body)


class TestScheduling:
    def test_smallest_clock_runs_first(self):
        """Checkpoints order PEs by simulated clock, deterministically."""
        eng = Engine(3)
        order = []

        def body(pe):
            pe.advance((3 - pe.rank) * 100)  # PE2 smallest, PE0 largest
            eng.checkpoint()
            order.append(pe.rank)

        eng.run(body)
        assert order == [2, 1, 0]

    def test_tied_clocks_deterministic(self):
        """On clock ties the running PE continues (no switch storm) and
        the rest are scheduled in rank order — the same order each run."""
        def make_order():
            eng = Engine(4)
            order = []

            def body(pe):
                pe.advance(5.0)
                eng.checkpoint()
                order.append(pe.rank)

            eng.run(body)
            return order

        first = make_order()
        assert sorted(first) == [0, 1, 2, 3]
        assert first == make_order()

    def test_determinism_across_runs(self):
        def make_trace():
            eng = Engine(4)
            trace = []

            def body(pe):
                for i in range(5):
                    pe.advance((pe.rank * 7 + i * 3) % 11 + 1)
                    eng.checkpoint()
                    trace.append((pe.rank, pe.clock))

            eng.run(body)
            return trace

        assert make_trace() == make_trace()


class TestSuspendResume:
    def test_suspend_until_resumed(self):
        eng = Engine(2)
        log = []

        def body(pe):
            if pe.rank == 0:
                eng.suspend()
                log.append(("woke", pe.clock))
            else:
                pe.advance(500)
                eng.checkpoint()
                eng.resume(0, at_time=pe.clock)
                log.append(("resumer", pe.clock))

        eng.run(body)
        assert ("woke", 500) in log

    def test_resume_non_blocked_raises(self):
        eng = Engine(2)

        def body(pe):
            if pe.rank == 1:
                eng.resume(0)  # PE0 is runnable, not blocked

        with pytest.raises(SimulationError):
            eng.run(body)

    def test_deadlock_detected(self):
        eng = Engine(2)

        def body(pe):
            eng.suspend()  # everyone blocks, nobody resumes

        with pytest.raises(DeadlockError):
            eng.run(body)

    def test_pe_error_beats_deadlock_report(self):
        """A crash that strands peers must surface as the crash."""
        eng = Engine(2)

        def body(pe):
            if pe.rank == 0:
                eng.suspend()
            else:
                raise ValueError("boom")

        with pytest.raises(SimulationError) as exc_info:
            eng.run(body)
        assert isinstance(exc_info.value.__cause__, ValueError)

    def test_failure_annotated_with_rank(self):
        eng = Engine(3)

        def body(pe):
            if pe.rank == 2:
                raise RuntimeError("pe2 exploded")

        with pytest.raises(SimulationError, match="PE 2"):
            eng.run(body)


class TestStateQueries:
    def test_current_outside_pe_code(self):
        eng = Engine(1)
        with pytest.raises(SimulationError):
            _ = eng.current

    def test_states_after_run(self):
        eng = Engine(2)
        eng.run(lambda pe: None)
        assert all(p.state is PEState.DONE for p in eng.pes)

    def test_needs_positive_pes(self):
        with pytest.raises(SimulationError):
            Engine(0)


class TestTrace:
    def test_trace_records_when_enabled(self):
        eng = Engine(1, trace=True)

        def body(pe):
            eng.record("test-event", "hello")

        eng.run(body)
        events = eng.trace.of_kind("test-event")
        assert len(events) == 1
        assert events[0].detail == "hello"

    def test_trace_disabled_by_default(self):
        eng = Engine(1)

        def body(pe):
            eng.record("x")

        eng.run(body)
        assert len(eng.trace) == 0

    def test_trace_bounded(self):
        from repro.sim.trace import EventTrace

        t = EventTrace(enabled=True, max_events=10)
        for i in range(25):
            t.record(float(i), 0, "e")
        assert len(t) <= 10
        assert t.dropped > 0


class TestContinuations:
    """``park``: where the engine would wake a parked PE's thread, the
    waking thread runs the PE's continuation — as that PE — and wakes the
    thread only when the continuation asks for it or raises."""

    def test_a_continuation_runs_as_its_pe_on_the_waking_thread(self):
        eng = Engine(2, trace=True)
        ran_on = []

        def cont(limit):
            assert eng.current is eng.pes[1]
            ran_on.append((threading.current_thread().name, limit))
            eng.record("step", "continued")
            eng.pes[1].advance(2)
            return PEState.RUNNING  # now its own thread runs on

        def body(pe):
            if pe.rank == 0:
                pe.advance(1)
                eng.checkpoint()  # PE 1 parks meanwhile
                eng.resume(1)
                pe.advance(5)
                eng.checkpoint()  # PE 1 is earlier: its continuation runs
            else:
                eng.park(cont, PEState.BLOCKED)
                assert pe.clock == 2 and eng.current is pe

        eng.run(body)
        assert ran_on == [("pe-0", 6.0)]  # PE 0 waits at 6 ns
        (event,) = eng.trace.of_kind("step")
        assert event.pe == 1

    def test_a_continuation_runs_in_clock_order_until_it_parks(self):
        """Two PEs parked behind PE 0 take turns on PE 0's thread by the
        engine's rule: a strictly earlier runnable PE goes first, a tie
        keeps running."""
        eng = Engine(3)
        order = []

        def make(pe, steps):
            def cont(limit):
                while steps:
                    if pe.clock > limit:
                        return PEState.RUNNABLE
                    order.append((pe.rank, pe.clock))
                    pe.advance(steps.pop(0))
                return PEState.RUNNING
            return cont

        def body(pe):
            if pe.rank:
                pe.advance(2)
                eng.park(make(pe, [3, 3, 3]), PEState.RUNNABLE)
            else:
                pe.advance(1)
                eng.checkpoint()  # PEs 1 and 2 park
                pe.advance(20)
                eng.checkpoint()
            order.append((pe.rank, "own"))

        eng.run(body)
        assert order == [(1, 2.0), (2, 2.0), (2, 5.0), (1, 5.0), (1, 8.0),
                         (1, "own"), (2, "own"), (0, "own")]

    def test_what_a_continuation_raises_is_raised_on_its_own_thread(self):
        eng = Engine(2)

        def cont(limit):
            raise ValueError("step failed")

        def body(pe):
            if pe.rank == 0:
                pe.advance(1)
                eng.checkpoint()
                eng.resume(1)
                pe.advance(1)
                eng.checkpoint()
            else:
                eng.park(cont, PEState.BLOCKED)

        with pytest.raises(SimulationError, match="PE 1 failed") as info:
            eng.run(body)
        assert isinstance(info.value.__cause__, ValueError)


class TestGeneratorContinuations:
    """The continuation protocol is one callable, ``cont(limit) ->
    PEState``: a primed generator's ``send`` is one, as GUPs' update
    stream is, and so is the executor's bound plan."""

    @staticmethod
    def _stream(eng, pe, steps, log):
        limit = yield
        for _ in range(steps):
            if pe.clock > limit:
                limit = yield PEState.RUNNABLE
            log.append((pe.rank, pe.clock, threading.current_thread().name,
                        eng.inline))
            pe.advance(3)
        while True:
            yield PEState.RUNNING

    def test_a_primed_send_parks_and_runs_on_other_threads(self):
        eng = Engine(3)
        log = []

        def body(pe):
            if pe.rank:
                pe.advance(2)
                stream = self._stream(eng, pe, 3, log)
                next(stream)
                eng.drive(stream.send)
            else:
                pe.advance(1)
                eng.checkpoint()  # PEs 1 and 2 park before their first step
                pe.advance(20)
                eng.checkpoint()  # ... and run on this thread
            log.append((pe.rank, "own", threading.current_thread().name,
                        eng.inline))

        eng.run(body)
        steps = [entry for entry in log if entry[1] != "own"]
        # The clock order of the thread-per-PE engine.  PE 0's thread
        # runs the others' steps as continuations until PE 1's stream
        # ends; the scheduler then wakes PE 2's own thread, which takes
        # its last step itself.
        assert steps == [(1, 2.0, "pe-0", True), (2, 2.0, "pe-0", True),
                         (2, 5.0, "pe-0", True), (1, 5.0, "pe-0", True),
                         (1, 8.0, "pe-0", True), (2, 8.0, "pe-2", False)]
        assert sorted(entry for entry in log if entry[1] == "own") == [
            (0, "own", "pe-0", False), (1, "own", "pe-1", False),
            (2, "own", "pe-2", False)]
        assert [pe.clock for pe in eng.pes] == [21.0, 11.0, 11.0]

    def test_what_a_generator_raises_is_raised_on_its_own_thread(self):
        eng = Engine(2)
        raised_on = []

        def stream(pe):
            limit = yield
            if pe.clock > limit:
                limit = yield PEState.RUNNABLE
            assert threading.current_thread().name == "pe-0"
            raise ValueError("update failed")

        def body(pe):
            if pe.rank == 0:
                pe.advance(1)
                eng.checkpoint()  # PE 1 parks at 5
                pe.advance(10)
                eng.checkpoint()  # PE 1's step runs here, and raises
                return
            pe.advance(5)
            gen = stream(pe)
            next(gen)
            try:
                eng.drive(gen.send)
            except ValueError:
                raised_on.append(threading.current_thread().name)
                raise

        with pytest.raises(SimulationError, match="PE 1 failed") as info:
            eng.run(body)
        assert isinstance(info.value.__cause__, ValueError)
        assert raised_on == ["pe-1"]

    def test_a_send_into_a_full_queue_wakes_the_senders_own_thread(
            self, monkeypatch):
        """A continuation must not wait out backpressure on another PE's
        thread: before a send into a full queue the executor returns
        ``RUNNING`` when ``Engine.inline``, and the rank's own thread
        takes the send."""
        import numpy as np

        from repro.collectives.schedule import execute_schedule, executor
        from repro.collectives.schedule.ir import (
            OP_RECV,
            OP_SEND,
            Buffer,
            Rows,
            Schedule,
            skeleton,
        )
        from repro.params import MachineConfig, MailboxParams
        from repro.runtime.context import Machine

        rows = Rows()
        for i in range(3):
            rows.add(0, 0, 0, OP_SEND, b=(0, 8 * i), nelems=1, peer=1, aux=i)
            rows.add(1, 0, 0, OP_RECV, a=(0, 32 + 8 * i), nelems=1, peer=0,
                     aux=i)
        sched = Schedule.from_rows(
            "burst", "test", 2, 8, rows, (skeleton(0, (), 0),),
            buffers=(Buffer("buf", "user", 64, symmetric=True),))
        asked = []
        steps = executor._steps

        def watched(ctx, ops, *rest):
            inner = steps(ctx, ops, *rest)
            limit = yield next(inner)
            while True:
                state = inner.send(limit)
                # Rank 0 sends three messages; a RUNNING before the last
                # of them is a request for its own thread.
                if state is PEState.RUNNING and ctx.machine.stats.sends < 3:
                    asked.append((ctx.rank, ctx.machine.engine.inline,
                                  threading.current_thread().name))
                limit = yield state

        monkeypatch.setattr(executor, "_steps", watched)

        def body(ctx):
            ctx.init()
            buf = ctx.malloc(64)
            ctx.view(buf, "int64", 8)[:] = np.arange(8) + 10 * ctx.my_pe()
            if ctx.my_pe() == 1:
                for _ in range(3):  # busy while rank 0's sends pile up
                    ctx.compute(90.0)
                    ctx.get(buf + 56, buf, 1, 1, 0, "int64")
            execute_schedule(ctx, sched, ctx.world_group, ctx.rank,
                             {"buf": buf}, np.dtype("int64"))
            got = ctx.view(buf, "int64", 8).tolist()
            ctx.close()
            return got

        machine = Machine(MachineConfig(
            n_pes=2, mailbox=MailboxParams(recv_depth=1)),
            transport="mailbox")
        results = machine.run(body)
        assert results[1][4:7] == [0, 1, 2]
        assert machine.stats.mbx_stalls > 0
        # Rank 0's plan was continued on rank 1's thread and handed back.
        assert asked and all(rank == 0 and inline and name == "pe-1"
                             for rank, inline, name in asked)


class TestReplayedSchedules:
    """Where continuations can go wrong: failures must land on the PE
    whose step failed, and a schedule whose ranks disagree on the
    barrier count must not hang."""

    @pytest.mark.parametrize("fast_paths", [True, False])
    def test_failing_step_fails_the_rank_it_belongs_to(self, fast_paths):
        import numpy as np

        from repro.collectives.schedule import execute_schedule
        from repro.errors import AddressError
        from repro.params import MachineConfig
        from repro.runtime.context import Machine

        n_pes = 4
        sched = ring_schedule(n_pes)

        def body(ctx):
            ctx.init()
            buf = ctx.malloc(16)
            if ctx.rank == 1:  # not the thread that replays the window
                buf = ctx.config.memory_bytes_per_pe  # out of range
            execute_schedule(ctx, sched, ctx.world_group, ctx.rank,
                             {"buf": buf}, np.dtype("int64"))
            ctx.close()

        machine = Machine(MachineConfig(n_pes=n_pes), fast_paths=fast_paths)
        with pytest.raises(SimulationError, match="PE 1 failed") as info:
            machine.run(body)
        assert isinstance(info.value.__cause__, AddressError)

    @pytest.mark.parametrize("fast_paths", [True, False])
    def test_unequal_barrier_counts_deadlock_instead_of_hanging(
            self, fast_paths):
        import numpy as np

        from repro.collectives.schedule import execute_schedule
        from repro.params import MachineConfig
        from repro.runtime.context import Machine

        n_pes = 3
        sched = ring_schedule(n_pes, rank0_barriers=3)

        def body(ctx):
            ctx.init()
            buf = ctx.malloc(16)
            execute_schedule(ctx, sched, ctx.world_group, ctx.rank,
                             {"buf": buf}, np.dtype("int64"))
            return ctx.time_ns  # no close(): it would pair the barrier

        machine = Machine(MachineConfig(n_pes=n_pes), fast_paths=fast_paths)
        with pytest.raises(DeadlockError, match=r"PEs \[0\]"):
            machine.run(body)
