"""Injector behaviour at the transport and runtime-call boundaries."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.plan import (
    CRASHED,
    FaultPlan,
    FiredFault,
    RetryConfig,
    crash,
    degrade,
    delay,
    drop,
    stall,
)
from repro.faults.injector import FaultInjector
from repro.runtime import Machine
from repro.types import TYPENAMES, typeinfo

from ..conftest import small_config

pytestmark = pytest.mark.faults


def machine(n_pes=2, plan=None, retry=None, trace=False):
    return Machine(small_config(n_pes), trace=trace, faults=plan, retry=retry)


def put_body(ctx):
    """PE 0 puts one marker word to PE 1; returns PE-local dest value."""
    ctx.init()
    buf = ctx.malloc(16)
    ctx.view(buf, "long", 2)[:] = [ctx.my_pe() + 10, 0]
    ctx.barrier()
    if ctx.my_pe() == 0:
        ctx.put(buf + 8, buf, 1, 1, 1, "long")
    ctx.barrier()
    got = list(ctx.view(buf, "long", 2))
    ctx.close()
    return got


class TestMessageFaults:
    def test_no_plan_no_injector(self):
        m = machine()
        assert m.faults is None
        assert m.network.injector is None
        assert m.run(put_body)[1] == [11, 10]

    def test_drop_without_retry_is_silent_loss(self):
        m = machine(plan=FaultPlan(rules=(drop(1.0),)))
        res = m.run(put_body)
        assert res[1] == [11, 0]  # payload never landed
        assert [f[1] for f in m.faults.fired] == ["drop"]

    def test_drop_with_retry_recovers(self):
        m = machine(plan=FaultPlan(rules=(drop(1.0, count=2),)),
                    retry=RetryConfig(timeout_ns=1_000.0))
        res = m.run(put_body)
        assert res[1] == [11, 10]
        assert m.stats.retries == 2
        assert m.stats.faults_injected["drop"] == 2

    @pytest.mark.parametrize("typename", TYPENAMES)
    def test_corrupt_flips_exactly_one_deterministic_bit(self, typename):
        """Every salt changes exactly one element's value — never just
        the padding of a ``long double`` — and a fault is replayable:
        two applications leave identical bytes."""
        base = np.arange(1, 9).astype(typeinfo(typename).dtype)
        # Bits 20+ of the salt draw the bit, the low bits the element:
        # this sweep draws every bit position of a 16-byte element.
        for salt in ((b << 20) | b for b in range(128)):
            fault = FiredFault(kind="corrupt", rule_index=0, seq=0,
                               salt=salt)
            view, view2 = base.copy(), base.copy()
            FaultInjector.corrupt_payload(view, fault)
            FaultInjector.corrupt_payload(view2, fault)
            assert np.count_nonzero(view != base) == 1, hex(salt)
            assert view.tobytes() == view2.tobytes()

    def test_corrupt_empty_payload_is_noop(self):
        fault = FiredFault(kind="corrupt", rule_index=0, seq=0, salt=99)
        FaultInjector.corrupt_payload(np.zeros(0, dtype=np.int64), fault)

    def test_degrade_and_delay_slow_but_deliver(self):
        def two_puts(ctx):
            ctx.init()
            buf = ctx.malloc(32)
            ctx.view(buf, "long", 4)[:] = [ctx.my_pe() + 10, 0, 0, 0]
            ctx.barrier()
            if ctx.my_pe() == 0:
                ctx.put(buf + 8, buf, 1, 1, 1, "long")
                ctx.put(buf + 16, buf, 1, 1, 1, "long")
            ctx.barrier()
            got = list(ctx.view(buf, "long", 4))
            ctx.close()
            return got

        clean = machine()
        clean.run(two_puts)
        slow = machine(plan=FaultPlan(
            rules=(delay(5_000.0, 1.0, count=1), degrade(4.0, 1.0))))
        res = slow.run(two_puts)
        assert res[1] == [11, 10, 10, 0]  # data intact
        assert slow.elapsed_ns > clean.elapsed_ns
        kinds = {f[1] for f in slow.faults.fired}
        assert kinds == {"delay", "degrade"}

    def test_local_messages_never_sampled(self):
        def local_put(ctx):
            ctx.init()
            buf = ctx.malloc(16)
            ctx.view(buf, "long", 2)[:] = [3, 0]
            ctx.put(buf + 8, buf, 1, 1, ctx.my_pe(), "long")
            ctx.barrier()
            got = list(ctx.view(buf, "long", 2))
            ctx.close()
            return got

        m = machine(plan=FaultPlan(rules=(drop(1.0),)))
        assert m.run(local_put) == [[3, 3]] * 2
        assert m.faults.fired == []


class TestPeFaults:
    def test_stall_fires_once_and_is_recorded(self):
        m = machine(plan=FaultPlan(rules=(stall(1, 0.0, 7_777.0),)))
        res = m.run(put_body)
        assert res[1] == [11, 10]  # stall perturbs time, not data
        stalls = [f for f in m.faults.fired if f[1] == "stall"]
        assert len(stalls) == 1
        assert stalls[0][2] == 1  # the victim rank

    def test_crash_yields_sentinel_and_dead_set(self):
        def body(ctx):
            ctx.init()
            me = ctx.my_pe()
            ctx.compute(10_000.0)
            try:
                ctx.barrier()
            except Exception:
                pass
            ctx.close()
            return me

        m = machine(plan=FaultPlan(rules=(crash(1, 5_000.0),)))
        res = m.run(body)
        assert res[0] == 0
        assert res[1] is CRASHED
        assert repr(res[1]) == "CRASHED"
        assert m.failed_pes == frozenset({1})
        assert m.faults.dead_pes == frozenset({1})
        assert any(f[1] == "crash" and f[2] == 1 for f in m.faults.fired)

    def test_crash_before_trigger_time_does_not_fire(self):
        m = machine(plan=FaultPlan(rules=(crash(1, 1e15),)))
        res = m.run(put_body)
        assert res[1] == [11, 10]
        assert m.failed_pes == frozenset()
