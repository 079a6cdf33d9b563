"""Property tests for the mailbox engine (two-sided transport core).

The invariants the rest of the stack leans on, checked directly against
:class:`~repro.machine.mailbox.MailboxRouter` through the ``msg_*``
context surface:

* **Exactly-once, FIFO per pair** — under arbitrary message plans and
  sender-side timing jitter, no message is lost or duplicated and the
  per-``(src, dst)`` delivery order matches program order.
* **Backpressure** — a sender blocks exactly when the target queue
  holds ``recv_depth`` messages, drains cleanly once the receiver
  consumes, and a hopeless stall fails with
  :class:`~repro.errors.MailboxBackpressureError` leaving the queue
  untouched (commit safety: all-or-nothing enqueue).
* **Fault commit safety** — with an unreliable postoffice every
  message is either delivered exactly once (in order) or counted in
  ``mbx_dropped``; with :class:`~repro.faults.RetryConfig` armed the
  same drop plan delivers everything exactly once.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    CollectiveArgumentError,
    MailboxBackpressureError,
    MailboxProtocolError,
)
from repro.faults import FaultPlan, RetryConfig, drop
from repro.params import MailboxParams
from repro.runtime.context import Machine

from ..conftest import small_config

_SETTINGS = settings(max_examples=10, deadline=None)

_I64 = np.dtype("int64")


def _spmd(fn):
    """Bracket a test program with the runtime's init()/close() pair."""
    def wrapper(ctx, *args):
        ctx.init()
        try:
            return fn(ctx, *args)
        finally:
            ctx.close()
    return wrapper


# ---------------------------------------------------------------------------
# exactly-once + per-pair FIFO under arbitrary plans
# ---------------------------------------------------------------------------

@st.composite
def _plans(draw):
    """(n_pes, [(src, dst), ...], per-message jitter ns)."""
    n = draw(st.integers(min_value=2, max_value=4))
    k = draw(st.integers(min_value=0, max_value=14))
    pes = st.integers(min_value=0, max_value=n - 1)
    plan = [(draw(pes), draw(pes)) for _ in range(k)]
    jitter = [draw(st.integers(min_value=0, max_value=400)) for _ in range(k)]
    return n, plan, jitter


@_spmd
def _exchange(ctx, plan, jitter):
    """Send this PE's share of ``plan`` (tag = plan index), then drain."""
    me = ctx.my_pe()
    buf = ctx.malloc(_I64.itemsize)
    view = ctx.view(buf, _I64, 1)
    try:
        for i, (src, dst) in enumerate(plan):
            if src != me:
                continue
            ctx.compute(float(jitter[i]))
            view[0] = 1000 + i
            ctx.msg_send(buf, 1, 1, dst, tag=i, dtype=_I64)
        ctx.barrier()  # network quiescence: every surviving message landed
        got = []
        while True:
            res = ctx.msg_try_recv(buf, 1, 1, dtype=_I64)
            if res is None:
                break
            got.append((res[0], res[1], int(view[0])))
        return got
    finally:
        ctx.free(buf)


class TestExactlyOnceFIFO:
    @_SETTINGS
    @given(_plans())
    def test_no_loss_no_duplication_fifo(self, case):
        n, plan, jitter = case
        m = Machine(small_config(n))
        results = m.run(_exchange, [(plan, jitter)] * n)
        # Exactly once: the delivered multiset equals the plan.
        delivered = sorted((d, s, tag)
                           for d, got in enumerate(results)
                           for (s, tag, _) in got)
        expected = sorted((dst, src, i) for i, (src, dst) in enumerate(plan))
        assert delivered == expected
        # Payload integrity: each message carries its own plan index.
        for got in results:
            for _, tag, val in got:
                assert val == 1000 + tag
        # FIFO per (src, dst): delivery order matches program order.
        for d, got in enumerate(results):
            for s in range(n):
                seen = [tag for (src, tag, _) in got if src == s]
                want = [i for i, (src, dst) in enumerate(plan)
                        if src == s and dst == d]
                assert seen == want
        assert m.stats.sends == len(plan)
        assert m.stats.recvs == len(plan)
        assert m.mailbox.dropped == 0

    def test_self_send_round_trips(self):
        plan = [(0, 0), (0, 0), (1, 0)]
        m = Machine(small_config(2))
        results = m.run(_exchange, [(plan, [0, 0, 0])] * 2)
        # Cross-source drain order follows delivery time, but each pair's
        # FIFO holds — including the loopback pair.
        assert sorted((s, t) for s, t, _ in results[0]) == \
            [(0, 0), (0, 1), (1, 2)]
        assert [t for s, t, _ in results[0] if s == 0] == [0, 1]
        assert results[1] == []


# ---------------------------------------------------------------------------
# backpressure
# ---------------------------------------------------------------------------

@_spmd
def _fill_then_overflow(ctx, depth):
    me = ctx.my_pe()
    buf = ctx.malloc(_I64.itemsize)
    view = ctx.view(buf, _I64, 1)
    try:
        if me != 0:
            return None
        for i in range(depth):
            view[0] = i
            ctx.msg_send(buf, 1, 1, 1, tag=i, dtype=_I64)
        mbx = ctx.machine.mailbox
        filled = (mbx.depth(1), mbx.stalls)
        err = None
        try:
            ctx.msg_send(buf, 1, 1, 1, tag=depth, dtype=_I64)
        except MailboxBackpressureError:
            err = "backpressure"
        return filled + (err, mbx.depth(1))
    finally:
        ctx.free(buf)


class TestBackpressure:
    def test_blocks_exactly_at_depth(self):
        """``recv_depth`` sends pass stall-free; one more fails cleanly."""
        depth, retries = 4, 3
        cfg = small_config(2, mailbox=MailboxParams(recv_depth=depth,
                                                    max_retries=retries))
        m = Machine(cfg)
        (result,) = [r for r in m.run(_fill_then_overflow,
                                      [(depth,)] * 2) if r]
        depth_filled, stalls_filled, err, depth_after = result
        assert depth_filled == depth      # exactly at capacity, no stall yet
        assert stalls_filled == 0
        assert err == "backpressure"      # the (depth+1)-th send gives up
        assert depth_after == depth       # all-or-nothing: no partial enqueue
        assert m.mailbox.stalls == retries
        assert m.mailbox.peak_depth[1] == depth
        assert m.stats.sends == depth     # the failed attempt is not a send

    def test_releases_when_receiver_drains(self):
        """A shallow queue backpressures but the stream still completes."""
        depth, total = 2, 9

        @_spmd
        def prog(ctx):
            me = ctx.my_pe()
            buf = ctx.malloc(_I64.itemsize)
            view = ctx.view(buf, _I64, 1)
            try:
                if me == 0:
                    for i in range(total):
                        view[0] = 10 * i
                        ctx.msg_send(buf, 1, 1, 1, tag=i, dtype=_I64)
                    return None
                vals = []
                for i in range(total):
                    ctx.msg_recv(buf, 1, 1, 0, tag=i, dtype=_I64)
                    vals.append(int(view[0]))
                return vals
            finally:
                ctx.free(buf)

        cfg = small_config(2, mailbox=MailboxParams(recv_depth=depth))
        m = Machine(cfg)
        results = m.run(prog)
        assert results[1] == [10 * i for i in range(total)]
        assert m.mailbox.stalls > 0              # the queue did fill up
        assert m.stats.mbx_stalls == m.mailbox.stalls
        assert m.mailbox.peak_depth[1] == depth  # but never beyond depth
        assert m.mailbox.depth(1) == 0

    def test_blocking_recv_posted_before_send(self):
        """A receiver that arrives first suspends and wakes on delivery."""

        @_spmd
        def prog(ctx):
            me = ctx.my_pe()
            buf = ctx.malloc(_I64.itemsize)
            view = ctx.view(buf, _I64, 1)
            try:
                if me == 1:
                    ctx.msg_recv(buf, 1, 1, 0, tag=7, dtype=_I64)
                    return int(view[0]), ctx.pe.clock
                ctx.compute(5000.0)  # make sure PE 1 blocks first
                view[0] = 99
                ctx.msg_send(buf, 1, 1, 1, tag=7, dtype=_I64)
                return None, ctx.pe.clock
            finally:
                ctx.free(buf)

        m = Machine(small_config(2))
        results = m.run(prog)
        assert results[1][0] == 99
        assert results[1][1] >= 5000.0  # woke no earlier than the send


# ---------------------------------------------------------------------------
# protocol errors
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_tag_mismatch_raises(self):
        @_spmd
        def prog(ctx):
            me = ctx.my_pe()
            buf = ctx.malloc(_I64.itemsize)
            try:
                if me == 0:
                    ctx.view(buf, _I64, 1)[0] = 1
                    ctx.msg_send(buf, 1, 1, 1, tag=3, dtype=_I64)
                    return None
                try:
                    ctx.msg_recv(buf, 1, 1, 0, tag=5, dtype=_I64)
                except MailboxProtocolError:
                    return "tag-mismatch"
                return "accepted"
            finally:
                ctx.free(buf)

        assert Machine(small_config(2)).run(prog)[1] == "tag-mismatch"

    def test_size_mismatch_raises(self):
        @_spmd
        def prog(ctx):
            me = ctx.my_pe()
            buf = ctx.malloc(4 * _I64.itemsize)
            try:
                if me == 0:
                    ctx.msg_send(buf, 4, 1, 1, tag=0, dtype=_I64)
                    return None
                try:
                    ctx.msg_recv(buf, 2, 1, 0, tag=0, dtype=_I64)
                except MailboxProtocolError:
                    return "size-mismatch"
                return "accepted"
            finally:
                ctx.free(buf)

        assert Machine(small_config(2)).run(prog)[1] == "size-mismatch"

    def test_probe_tracks_visibility(self):
        @_spmd
        def prog(ctx):
            me = ctx.my_pe()
            buf = ctx.malloc(_I64.itemsize)
            try:
                if me == 0:
                    before = ctx.msg_probe()
                    ctx.view(buf, _I64, 1)[0] = 5
                    ctx.msg_send(buf, 1, 1, 1, tag=0, dtype=_I64)
                    ctx.barrier()
                    ctx.barrier()
                    return before
                ctx.barrier()  # quiescence: the message is now visible
                mid = ctx.msg_probe(0)
                ctx.msg_recv(buf, 1, 1, 0, tag=0, dtype=_I64)
                after = ctx.msg_probe()
                ctx.barrier()
                return mid, after
            finally:
                ctx.free(buf)

        results = Machine(small_config(2)).run(prog)
        assert results[0] is False
        assert results[1] == (True, False)

    def test_probe_rejects_unknown_pe(self):
        """``msg_probe`` checks its source like ``msg_try_recv`` does,
        instead of reporting "nothing queued" for a PE that cannot exist."""
        @_spmd
        def prog(ctx):
            outcomes = []
            for pe in (99, -1, ctx.num_pes()):
                try:
                    ctx.msg_probe(pe)
                    outcomes.append("accepted")
                except CollectiveArgumentError:
                    outcomes.append("rejected")
            return outcomes

        assert Machine(small_config(2)).run(prog) == [["rejected"] * 3] * 2


# ---------------------------------------------------------------------------
# fault commit safety
# ---------------------------------------------------------------------------

@_spmd
def _lossy_stream(ctx, total):
    me = ctx.my_pe()
    buf = ctx.malloc(_I64.itemsize)
    view = ctx.view(buf, _I64, 1)
    try:
        if me == 0:
            for i in range(total):
                view[0] = 100 + i
                ctx.msg_send(buf, 1, 1, 1, tag=i, dtype=_I64)
        ctx.barrier()
        got = []
        while True:
            res = ctx.msg_try_recv(buf, 1, 1, dtype=_I64)
            if res is None:
                break
            got.append((res[1], int(view[0])))
        return got
    finally:
        ctx.free(buf)


class TestFaultCommitSafety:
    @_SETTINGS
    @given(st.integers(min_value=0, max_value=2 ** 31))
    def test_drops_never_duplicate_or_reorder(self, seed):
        """Unreliable mode: survivors arrive exactly once, in order."""
        total = 20
        plan = FaultPlan(seed=seed, rules=(drop(probability=0.3),))
        m = Machine(small_config(2), faults=plan)
        results = m.run(_lossy_stream, [(total,)] * 2)
        tags = [t for t, _ in results[1]]
        assert all(v == 100 + t for t, v in results[1])
        assert len(tags) == len(set(tags))          # never duplicated
        assert tags == sorted(tags)                 # FIFO survives the losses
        assert set(tags) <= set(range(total))
        # Ledger closes: every message is delivered or accounted dropped.
        assert len(tags) == total - m.stats.mbx_dropped
        assert m.mailbox.dropped == m.stats.mbx_dropped
        assert m.stats.sends == len(tags)

    def test_retry_makes_the_stream_reliable(self):
        """The same drop plan delivers everything once retries are armed."""
        total = 20
        plan = FaultPlan(seed=11, rules=(drop(probability=0.3),))
        retry = RetryConfig(max_retries=8, timeout_ns=500.0, backoff=2.0)
        m = Machine(small_config(2), faults=plan, retry=retry)
        results = m.run(_lossy_stream, [(total,)] * 2)
        assert [t for t, _ in results[1]] == list(range(total))
        assert all(v == 100 + t for t, v in results[1])
        assert m.stats.mbx_dropped == 0  # retries absorbed every loss
        assert m.stats.retries > 0       # ...and the plan did fire
