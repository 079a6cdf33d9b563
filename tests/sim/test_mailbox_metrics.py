"""Span-tree metrics over the two-sided transport.

Regression for a latent one-sided assumption: ``_fold_ops`` used to
count only ``put``/``get`` spans, so a mailbox-lowered collective
reported zero messages moved.  Sends now fold into the stage message
counters — and only sends, because the matching recv is the *same*
wire message and folding both would double-count every transfer.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.context import Machine

from ..conftest import small_config

_I64 = np.dtype("int64")


def _allreduce_prog(ctx, nelems):
    ctx.init()
    try:
        src = ctx.malloc(_I64.itemsize * nelems)
        dest = ctx.malloc(_I64.itemsize * nelems)
        ctx.view(src, _I64, nelems)[:] = ctx.my_pe() + 1
        ctx.allreduce(dest, src, nelems, 1, dtype=_I64)
        out = ctx.view(dest, _I64, nelems).copy()
        ctx.free(dest)
        ctx.free(src)
        return out
    finally:
        ctx.close()


def _run_traced(transport):
    m = Machine(small_config(4), trace=True, transport=transport)
    results = m.run(_allreduce_prog, [(8,)] * 4)
    want = np.full(8, sum(range(1, 5)))
    for out in results:
        assert np.array_equal(out, want)
    return m


def test_mailbox_collective_reports_messages():
    m = _run_traced("mailbox")
    calls = m.collective_metrics()
    assert calls, "no collective spans were traced"
    total_msgs = sum(c.total_messages for c in calls)
    total_bytes = sum(c.total_bytes for c in calls)
    # Every wire message is counted exactly once, on the send side —
    # if recvs folded too, these would come out doubled.
    assert total_msgs == m.stats.sends
    assert total_bytes == m.stats.bytes_sent
    assert total_msgs > 0
    assert m.stats.recvs == m.stats.sends


def test_transports_agree_on_payload_accounting():
    """The two transports move the same logical payload per stage."""
    one = _run_traced("onesided")
    two = _run_traced("mailbox")

    def payload(m):
        return sum(c.total_bytes for c in m.collective_metrics())

    # Put payloads map 1:1 onto send payloads; get requests are
    # zero-byte control messages, so byte totals match exactly.
    assert payload(two) == payload(one)
    assert payload(one) > 0
