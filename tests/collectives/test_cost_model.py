"""One pricing pass equals the call-by-call cost model, to the bit.

The evaluator prices every memory access of a schedule with one
:meth:`~repro.collectives.schedule.evaluate.CostModel.price` call, each
access placed in program order by ``when``.  Before, it priced one lane
group per call and marked the touched pages between calls; that model is
kept in ``cost_reference.py``.  Random sequences of such calls go
through both here: every ns and every touched page must agree exactly,
whether the sequence is priced as one batch or as several (the vec
backend's successive collectives and raw operations share one model).

``test_evaluator_prices_memory_once`` is the gate with no clock in it:
whatever the schedule, one evaluation makes exactly one ``price`` call.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.schedule.evaluate import CostModel, evaluate_schedule
from repro.collectives.schedule.mailbox import lower_to_mailbox
from repro.collectives.schedule.registry import (
    BUILTIN_ALGORITHMS,
    _shapes_for,
)
from repro.params import CacheParams, MachineConfig, MemoryParams

from .cost_reference import ReferenceCostModel

#: Small caches, so that spans under L1, under L2 and past L2 all fit in
#: a few dozen pages.
CONFIG = MachineConfig(n_pes=4, mem=MemoryParams(
    l1=CacheParams(size_bytes=4096, ways=8, hit_ns=1.0),
    l2=CacheParams(size_bytes=32 * 1024, ways=8, hit_ns=10.0)))
ROWS = 4
MEM_BYTES = 40 * 4096 + 96  # a partial last page


@st.composite
def lane_groups(draw):
    """One call of the old model: ``("range", span)`` or ``("strided",
    nelems, elem_bytes, stride)``, its lanes' rows and addresses, and
    whether it walks the TLB."""
    if draw(st.booleans()):
        l1, l2 = CONFIG.mem.l1.size_bytes, CONFIG.mem.l2.size_bytes
        span = draw(st.integers(0, 40 * 1024)
                    | st.sampled_from((l1, l1 + 1, l2, l2 + 1)))
        shape = ("range", span)
    else:
        nelems = draw(st.integers(0, 300))
        elem = draw(st.sampled_from((1, 2, 8, 16)))
        stride = draw(st.integers(1, 12))
        shape = ("strided", nelems, elem, stride)
        span = (nelems - 1) * elem * stride + elem if nelems else 0
    lanes = draw(st.integers(1, 6))
    rows = draw(st.lists(st.integers(0, ROWS - 1), min_size=lanes,
                         max_size=lanes))
    addrs = draw(st.lists(st.integers(0, MEM_BYTES - max(span, 1)),
                          min_size=lanes, max_size=lanes))
    return shape, np.array(rows), np.array(addrs), draw(st.booleans())


def _call_by_call(calls):
    ref = ReferenceCostModel(CONFIG, ROWS, MEM_BYTES)
    out = []
    for shape, rows, addrs, tlb in calls:
        if shape[0] == "range":
            out.append(ref.range_ns(rows, addrs, shape[1], tlb))
        else:
            out.append(ref.strided_ns(rows, addrs, *shape[1:], tlb))
    return out, ref._touched


def _as_accesses(shape):
    """``(nelems, step, elem_bytes)`` of a call, or None if it is empty."""
    if shape[0] == "range":
        return (shape[1], 1, 1) if shape[1] > 0 else None
    nelems, elem, stride = shape[1:]
    return (nelems, elem * max(stride, 1), elem) if nelems > 0 else None


def _one_pass(calls, cuts):
    """The same calls through ``price``: call ``k`` at ``when = k``, one
    ``price`` call per batch between consecutive ``cuts``."""
    cost = CostModel(CONFIG, ROWS, MEM_BYTES)
    out = [np.zeros(len(rows)) for _, rows, _, _ in calls]
    for lo, hi in zip([0, *cuts], [*cuts, len(calls)]):
        live = [k for k in range(lo, hi) if _as_accesses(calls[k][0])]
        if not live:
            continue

        def column(value):
            return np.concatenate([np.broadcast_to(value(k),
                                                   len(calls[k][1]))
                                   for k in live])

        ns = cost.price(
            column(lambda k: calls[k][1]), column(lambda k: calls[k][2]),
            column(lambda k: _as_accesses(calls[k][0])[0]),
            column(lambda k: _as_accesses(calls[k][0])[1]),
            column(lambda k: _as_accesses(calls[k][0])[2]),
            column(lambda k: calls[k][3]), column(lambda k: k))
        sizes = np.cumsum([len(calls[k][1]) for k in live])[:-1]
        for k, piece in zip(live, np.split(ns, sizes)):
            out[k] = piece
    return out, cost._touched


@settings(max_examples=300, deadline=None)
@given(st.lists(lane_groups(), min_size=1, max_size=12), st.data())
def test_one_pass_prices_like_call_by_call(calls, data):
    cuts = sorted(data.draw(st.sets(st.integers(1, len(calls)),
                                    max_size=3)))
    want, want_touched = _call_by_call(calls)
    got, got_touched = _one_pass(calls, [c for c in cuts if c < len(calls)])
    for k, (w, g) in enumerate(zip(want, got)):
        assert np.asarray(g, dtype=np.float64).tobytes() == w.tobytes(), k
    assert np.array_equal(got_touched, want_touched)


def test_lanes_of_one_call_do_not_see_each_other():
    """Two accesses to one page: cold twice at one ``when``, cold then
    warm at two."""
    rows, addrs = np.array([1, 1]), np.array([4096, 4096 + 64])
    args = (np.array([8, 8]), np.array([8, 8]), 8, np.array([True, True]))
    together = CostModel(CONFIG, ROWS, MEM_BYTES).price(
        rows, addrs, *args, np.array([3, 3]))
    apart = CostModel(CONFIG, ROWS, MEM_BYTES).price(
        rows, addrs, *args, np.array([3, 4]))
    assert together[0] == together[1] == apart[0] > apart[1]


@pytest.mark.parametrize("transport", ("onesided", "mailbox"))
@pytest.mark.parametrize("collective,algorithm", BUILTIN_ALGORITHMS,
                         ids=[f"{c}-{a}" for c, a in BUILTIN_ALGORITHMS])
def test_evaluator_prices_memory_once(collective, algorithm, transport,
                                      monkeypatch):
    """Every row's memory access in one ``CostModel.price`` call per
    evaluation; the clock loop prices none."""
    calls = 0
    price = CostModel.price

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return price(self, *args)

    monkeypatch.setattr(CostModel, "price", counted)
    for _, sched in _shapes_for(collective, algorithm, 6, 12, 8):
        if transport == "mailbox":
            sched = lower_to_mailbox(sched)
        before = calls
        evaluate_schedule(sched)
        assert calls == before + 1
