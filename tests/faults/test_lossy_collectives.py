"""Collectives over a lossy transport must still match the numpy oracles.

Every test runs a real collective on a machine whose network drops,
delays or corrupts messages, with the ack/retry layer enabled, and
asserts the results are byte-identical to the fault-free semantics —
the whole point of the resilience layer.  Each test also asserts that
faults actually fired, so a quiet plan can't turn these into no-ops.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError, TransferTimeoutError
from repro.faults.plan import FaultPlan, RetryConfig, corrupt, delay, drop
from repro.runtime import Machine

from ..conftest import small_config

pytestmark = pytest.mark.faults

#: Drops and delays a quarter of all messages — noisy but recoverable.
LOSSY = FaultPlan(seed=0xBAD1, rules=(drop(0.25), delay(800.0, 0.25)))
RETRY = RetryConfig(max_retries=8, timeout_ns=4_000.0)


def lossy_machine(n_pes, plan=LOSSY, retry=RETRY):
    return Machine(small_config(n_pes), faults=plan, retry=retry)


def assert_faults_fired(machine, *kinds):
    seen = {f[1] for f in machine.faults.fired}
    for kind in kinds:
        assert kind in seen, f"plan never fired a {kind!r}: {seen}"


class TestLossyCollectives:
    N_PES = 8
    NELEMS = 16

    def test_broadcast(self):
        data = np.arange(self.NELEMS, dtype=np.int64) * 3 + 1

        def body(ctx):
            ctx.init()
            dest = ctx.malloc(8 * self.NELEMS)
            src = ctx.private_malloc(8 * self.NELEMS)
            if ctx.my_pe() == 2:
                ctx.view(src, "long", self.NELEMS)[:] = data
            ctx.long_broadcast(dest, src, self.NELEMS, 1, 2)
            got = np.array(ctx.view(dest, "long", self.NELEMS), copy=True)
            ctx.close()
            return got

        m = lossy_machine(self.N_PES)
        for got in m.run(body):
            np.testing.assert_array_equal(got, data)
        assert_faults_fired(m, "drop")
        assert m.stats.retries > 0

    def test_reduce(self):
        per_pe = [np.arange(self.NELEMS, dtype=np.int64) + 7 * r
                  for r in range(self.N_PES)]

        def body(ctx):
            ctx.init()
            me = ctx.my_pe()
            src = ctx.malloc(8 * self.NELEMS)
            dest = ctx.private_malloc(8 * self.NELEMS)
            ctx.view(src, "long", self.NELEMS)[:] = per_pe[me]
            ctx.long_reduce_sum(dest, src, self.NELEMS, 1, 0)
            got = (np.array(ctx.view(dest, "long", self.NELEMS), copy=True)
                   if me == 0 else None)
            ctx.close()
            return got

        m = lossy_machine(self.N_PES)
        res = m.run(body)
        np.testing.assert_array_equal(res[0], np.sum(per_pe, axis=0))
        assert_faults_fired(m, "drop")

    def test_scatter_gather_roundtrip(self):
        n = self.N_PES
        msgs = [i + 1 for i in range(n)]
        disp = list(np.cumsum([0] + msgs[:-1]))
        total = sum(msgs)
        data = np.arange(total, dtype=np.int64) - 5

        def body(ctx):
            ctx.init()
            me = ctx.my_pe()
            src = ctx.malloc(8 * total)
            mid = ctx.private_malloc(8 * max(msgs))
            out = ctx.malloc(8 * total)
            if me == 1:
                ctx.view(src, "long", total)[:] = data
            ctx.long_scatter(mid, src, msgs, disp, total, 1)
            back = ctx.malloc(8 * max(msgs))
            ctx.view(back, "long", msgs[me])[:] = ctx.view(mid, "long",
                                                           msgs[me])
            ctx.long_gather(out, back, msgs, disp, total, 1)
            got = (np.array(ctx.view(out, "long", total), copy=True)
                   if me == 1 else None)
            ctx.close()
            return got

        m = lossy_machine(n)
        res = m.run(body)
        np.testing.assert_array_equal(res[1], data)
        assert_faults_fired(m, "drop")

    @pytest.mark.parametrize("algorithm", ["doubling", "rabenseifner"])
    def test_allreduce(self, algorithm):
        per_pe = [np.arange(self.NELEMS, dtype=np.int64) * (r + 1)
                  for r in range(self.N_PES)]
        expect = np.sum(per_pe, axis=0)

        def body(ctx):
            ctx.init()
            me = ctx.my_pe()
            src = ctx.malloc(8 * self.NELEMS)
            dest = ctx.private_malloc(8 * self.NELEMS)
            ctx.view(src, "long", self.NELEMS)[:] = per_pe[me]
            from repro.collectives import COLLECTIVES, prepare

            prepare(ctx, COLLECTIVES["allreduce"], dest, src, self.NELEMS, 1,
                    "sum", np.dtype(np.int64), algorithm=algorithm).run(ctx)
            got = np.array(ctx.view(dest, "long", self.NELEMS), copy=True)
            ctx.close()
            return got

        m = lossy_machine(self.N_PES)
        for got in m.run(body):
            np.testing.assert_array_equal(got, expect)
        assert_faults_fired(m, "drop")


class TestRetryEdgeCases:
    def test_corruption_is_retransmitted(self):
        data = np.arange(8, dtype=np.int64) + 100

        def body(ctx):
            ctx.init()
            dest = ctx.malloc(8 * 8)
            src = ctx.private_malloc(8 * 8)
            if ctx.my_pe() == 0:
                ctx.view(src, "long", 8)[:] = data
            ctx.long_broadcast(dest, src, 8, 1, 0)
            got = np.array(ctx.view(dest, "long", 8), copy=True)
            ctx.close()
            return got

        m = Machine(small_config(4),
                    faults=FaultPlan(rules=(corrupt(1.0, count=3),)),
                    retry=RetryConfig(timeout_ns=2_000.0))
        for got in m.run(body):
            np.testing.assert_array_equal(got, data)
        assert m.stats.faults_injected["corrupt"] == 3
        assert m.stats.retries == 3

    def test_retries_exhausted_raises_timeout(self):
        def body(ctx):
            ctx.init()
            buf = ctx.malloc(8)
            if ctx.my_pe() == 0:
                ctx.put(buf, buf, 1, 1, 1, "long")
            ctx.barrier()
            ctx.close()

        m = Machine(small_config(2), faults=FaultPlan(rules=(drop(1.0),)),
                    retry=RetryConfig(max_retries=2, timeout_ns=1_000.0))
        with pytest.raises(SimulationError) as exc:
            m.run(body)
        assert isinstance(exc.value.__cause__, TransferTimeoutError)
        assert "max_retries=2" in str(exc.value.__cause__)

    def test_delay_without_retry_is_still_correct(self):
        """Pure delays need no retry layer: the barrier quiescence
        horizon absorbs late deliveries."""
        data = np.arange(16, dtype=np.int64) * 2

        def body(ctx):
            ctx.init()
            dest = ctx.malloc(8 * 16)
            src = ctx.private_malloc(8 * 16)
            if ctx.my_pe() == 0:
                ctx.view(src, "long", 16)[:] = data
            ctx.long_broadcast(dest, src, 16, 1, 0)
            got = np.array(ctx.view(dest, "long", 16), copy=True)
            ctx.close()
            return got

        m = Machine(small_config(8),
                    faults=FaultPlan(rules=(delay(10_000.0, 0.5),)))
        for got in m.run(body):
            np.testing.assert_array_equal(got, data)
        assert m.stats.faults_injected["delay"] > 0
        assert m.stats.retries == 0
