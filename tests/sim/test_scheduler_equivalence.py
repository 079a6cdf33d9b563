"""Direct-handoff scheduler vs scheduler-bounce reference.

Both strategies must produce the *identical* deterministic event order:
same per-PE results, same final clocks, same makespan, and byte-identical
event traces — across PE counts, collective shapes and blocking patterns.
The direct-handoff path only changes how threads exchange control, never
which PE runs next.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DeadlockError
from repro.params import MachineConfig
from repro.runtime.context import Machine
from repro.sim.engine import Engine


def run_engine(direct, body, n_pes, args=None):
    eng = Engine(n_pes, trace=True, direct_handoff=direct)
    results = eng.run(body, args)
    trace = [
        (e.time_ns, e.pe, e.kind, e.detail) for e in eng.trace._events
    ]
    clocks = [pe.clock for pe in eng.pes]
    return results, clocks, eng.elapsed_ns, trace


def assert_schedules_identical(body, n_pes, args=None):
    ref = run_engine(False, body, n_pes, args)
    fast = run_engine(True, body, n_pes, args)
    assert fast == ref


class TestEngineEquivalence:
    @pytest.mark.parametrize("n_pes", range(1, 13))
    def test_yield_storm(self, n_pes):
        """Unequal advances force constant reordering of the run queue."""

        def body(pe):
            for i in range(40):
                pe.advance(1.0 + ((pe.rank * 7 + i) % 5))
                pe.engine.record("tick", f"{pe.rank}:{i}")
                pe.engine.checkpoint()
            return pe.clock

        assert_schedules_identical(body, n_pes)

    @pytest.mark.parametrize("n_pes", [2, 3, 5, 8])
    def test_suspend_resume_chains(self, n_pes):
        """Neighbour wake-up chains exercise suspend/resume ordering."""

        def body(pe):
            eng = pe.engine
            for round_ in range(6):
                pe.advance(float((pe.rank + round_) % 3 + 1))
                if pe.rank == round_ % n_pes:
                    # Wake everyone else, then yield.
                    for other in eng.pes:
                        if other is not pe and other.state.value == "blocked":
                            eng.resume(other.rank, at_time=pe.clock)
                    eng.checkpoint()
                else:
                    eng.record("wait", str(round_))
                    eng.checkpoint()
            return pe.clock

        assert_schedules_identical(body, n_pes)

    def test_all_clocks_tied(self):
        """Equal clocks at every step: both strategies apply the same
        no-preemption-on-tie rule, so the interleaving stays identical."""

        def body(pe):
            for _ in range(10):
                pe.advance(1.0)  # all PEs share the same clock
                pe.engine.record("step", str(pe.rank))
                pe.engine.checkpoint()
            return pe.clock

        ref = run_engine(False, body, 6)
        fast = run_engine(True, body, 6)
        assert fast == ref
        # The very first round starts from identical NEW PEs, so it must
        # come out rank-ordered.
        first_round = [rank for _, rank, _, _ in fast[3][:6]]
        assert first_round == list(range(6))

    def test_deadlock_detected_on_both_paths(self):
        def body(pe):
            pe.engine.suspend()  # nobody will resume us

        for direct in (False, True):
            eng = Engine(2, direct_handoff=direct)
            with pytest.raises(DeadlockError):
                eng.run(body)


class TestMachineEquivalence:
    """End-to-end: full collectives through both scheduler strategies.

    ``Machine(fast_paths=...)`` flips the scheduler and memory fast paths
    together; with the costing layer already proven bit-identical
    (test_costing_equivalence), trace equality here pins the schedule.
    """

    @pytest.mark.parametrize("n_pes", [1, 2, 3, 5, 8, 12])
    @pytest.mark.parametrize("op", [
        "broadcast", pytest.param("allreduce", id="reduction_to_all"),
        "alltoall"])
    def test_collective_traces_byte_identical(self, n_pes, op):
        def body(ctx, op):
            ctx.init()
            n = ctx.num_pes()
            nelems = 16
            src = ctx.malloc(8 * nelems * n)
            dest = ctx.malloc(8 * nelems * n)
            ctx.view(src, "int64", nelems * n)[:] = (
                np.arange(nelems * n) + ctx.my_pe()
            )
            if op == "broadcast":
                ctx.broadcast(src, src, nelems, 1, 0)
                out = ctx.view(src, "int64", nelems).copy()
            elif op == "allreduce":
                ctx.allreduce(dest, src, nelems, 1, "sum")
                out = ctx.view(dest, "int64", nelems).copy()
            else:
                ctx.alltoall(dest, src, nelems)
                out = ctx.view(dest, "int64", nelems * n).copy()
            t = ctx.time_ns
            ctx.close()
            return out.tolist(), t

        runs = {}
        for fast in (False, True):
            m = Machine(MachineConfig(n_pes=n_pes), fast_paths=fast,
                        trace=True)
            res = m.run(body, [(op,)] * n_pes)
            trace = [
                (e.time_ns, e.pe, e.kind, e.detail)
                for e in m.engine.trace._events
            ]
            runs[fast] = (res, m.engine.elapsed_ns, trace)
        assert runs[True] == runs[False]

    @pytest.mark.parametrize("n_pes", [2, 5, 8])
    def test_tracing_does_not_move_a_clock(self, n_pes):
        """A traced machine keeps every collective on the per-rank
        driver (barrier and stage spans open on each PE's own thread);
        an untraced one replays whole-machine collectives from one
        thread.  Turning tracing on must change what is recorded and
        nothing else."""
        def body(ctx):
            ctx.init()
            n, me = ctx.num_pes(), ctx.my_pe()
            src = ctx.malloc(8 * 6 * n)
            dest = ctx.malloc(8 * 6 * n)
            ctx.view(src, "int64", 6 * n)[:] = np.arange(6 * n) * (me + 1)
            ctx.compute(40.0 * me)
            ctx.broadcast(dest, src, 6, 1, n - 1)
            ctx.allreduce(dest, src, 6, 1, "sum",
                          algorithm="dual-pipelined", segments=2)
            ctx.scan(dest, src, 6, 1, "sum")
            ctx.alltoall(dest, src, 6)
            out = ctx.view(dest, "int64", 6 * n).tolist()
            t = ctx.time_ns
            ctx.close()
            return out, t

        runs = {}
        for trace in (False, True):
            m = Machine(MachineConfig(n_pes=n_pes), trace=trace)
            res = m.run(body)
            runs[trace] = (res, [pe.clock for pe in m.engine.pes],
                           m.stats)
            assert bool(len(m.engine.trace)) is trace
        assert runs[True] == runs[False]
