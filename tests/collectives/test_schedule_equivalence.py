"""Compiled schedules must be bit-identical to the legacy tree walks.

PR 4 replaced the inline collective implementations with compiled
schedules; :mod:`tests.collectives.legacy_reference` froze the old code
verbatim.  These property tests run each collective twice — once through
the frozen legacy implementation, once through the compiled path — on
two machines with identical configuration and inputs, and require the
two runs to agree on *everything observable*:

* every PE's output buffer, element for element;
* the statistics counters (puts/gets, bytes moved, remote transfer
  counts, barriers, per-algorithm collective-call tallies);
* the recorded span events — same order, same PEs, same
  ``collective:``/``stage:`` tags, same attribute payloads, same start
  times and durations;
* the simulated makespan.

Hypothesis drives group sizes 1–16 (either side of every power of two),
all roots, random element counts, strides, reduction ops and — for the
vector collectives — random ragged counts/displacements including
zero-count PEs.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runtime import Machine
from repro.types import dtype_of

from ..conftest import small_config
from . import legacy_reference as legacy

_SETTINGS = settings(max_examples=15, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

_TYPENAMES = ("long", "int", "double", "float")

#: Small non-negative integers are exact in every dtype above, so the
#: fold order can never introduce rounding differences.
_MAX_VAL = 7


def _values(seed, shape, dtype):
    rng = np.random.default_rng(seed)
    return rng.integers(0, _MAX_VAL + 1, size=shape).astype(dtype)


def _observe(n_pes, body):
    """Run ``body`` on a fresh traced machine; return all observables."""
    machine = Machine(small_config(n_pes), trace=True)
    outputs = machine.run(body)
    st_ = machine.stats
    stats = {
        "puts": st_.puts,
        "gets": st_.gets,
        "bytes_put": st_.bytes_put,
        "bytes_got": st_.bytes_got,
        "remote_puts": st_.remote_puts,
        "remote_gets": st_.remote_gets,
        "barriers": st_.barriers,
        "collective_calls": dict(st_.collective_calls),
    }
    spans = [
        (e.time_ns, e.pe, e.detail, e.dur_ns,
         tuple((e.attrs or {}).items()))
        for e in machine.engine.trace.spans()
    ]
    return outputs, stats, spans, machine.elapsed_ns


def _eager(prepare):
    """The blocking call of ``prepare``: prepare it, then run it."""
    def call(ctx, *args, **kwargs):
        prepare(ctx, *args, **kwargs).run(ctx)
    return call


def _assert_identical(n_pes, body_legacy, body_new):
    out_l, stats_l, spans_l, t_l = _observe(n_pes, body_legacy)
    out_n, stats_n, spans_n, t_n = _observe(n_pes, body_new)
    for pe, (gl, gn) in enumerate(zip(out_l, out_n)):
        assert np.array_equal(gl, gn), f"PE {pe} output differs"
    assert stats_n == stats_l
    assert spans_n == spans_l
    assert t_n == t_l


def _assert_chained(n_pes, body_legacy, body_new, call):
    """:func:`_assert_identical` for a collective the legacy code
    composed of several calls and the chain runs as one schedule:
    outputs, every counter but the call count, every op span and the
    simulated time must match; the chained run counts one ``call``, and
    its one collective span per PE covers what the legacy outer span
    did (the legacy inner calls' spans and stage numbering do not
    exist there)."""
    out_l, stats_l, spans_l, t_l = _observe(n_pes, body_legacy)
    out_n, stats_n, spans_n, t_n = _observe(n_pes, body_new)
    for pe, (gl, gn) in enumerate(zip(out_l, out_n)):
        assert np.array_equal(gl, gn), f"PE {pe} output differs"
    assert stats_n.pop("collective_calls") == {call: 1}
    stats_l.pop("collective_calls")
    assert stats_n == stats_l
    assert t_n == t_l

    def ops(spans):
        return [s for s in spans if s[2].startswith("op:")]

    def outer(spans):
        name = "collective:" + call.split(":")[0]
        return [s[:4] for s in spans if s[2] == name]

    assert ops(spans_n) == ops(spans_l)
    assert outer(spans_n) == outer(spans_l)


@st.composite
def _cases(draw, *, need_op=False, max_stride=2, min_pes=1):
    n_pes = draw(st.integers(min_pes, 16))
    case = {
        "n_pes": n_pes,
        "root": draw(st.integers(0, n_pes - 1)),
        "typename": draw(st.sampled_from(_TYPENAMES)),
        "nelems": draw(st.integers(0, 6)),
        "stride": draw(st.integers(1, max_stride)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }
    if need_op:
        case["op"] = draw(st.sampled_from(["sum", "min", "max"]))
    return case


def _span_nbytes(nelems, stride, dt):
    return max(dt.itemsize * ((max(nelems, 1) - 1) * stride + 1), 16)


# -- dense collectives -----------------------------------------------------


def _dense_body(call, dt, nelems, stride, fill_src):
    """Shared harness: allocate, fill src, run ``call``, read dest.

    Both buffers come from the symmetric heap so one harness satisfies
    every collective's symmetry requirement (broadcast wants ``dest``
    symmetric, the reductions want ``src``).
    """
    nbytes = _span_nbytes(nelems, stride, dt)

    def body(ctx):
        ctx.init()
        dest = ctx.malloc(nbytes)
        src = ctx.malloc(nbytes)
        ctx.view(dest, dt, nelems, stride)[:] = 0
        fill_src(ctx, dest, src)
        call(ctx, dest, src)
        got = np.array(ctx.view(dest, dt, nelems, stride), copy=True)
        ctx.close()
        return got

    return body


@given(case=_cases(),
       algorithm=st.sampled_from(["binomial", "linear", "ring"]))
@_SETTINGS
def test_broadcast_equivalence(case, algorithm):
    dt = dtype_of(case["typename"])
    nelems, stride, root = case["nelems"], case["stride"], case["root"]
    data = _values(case["seed"], nelems, dt)

    def fill(ctx, dest, src):
        if ctx.my_pe() == root:
            ctx.view(src, dt, nelems, stride)[:] = data

    def make(fn):
        def call(ctx, dest, src):
            fn(ctx, dest, src, nelems, stride, root, dt,
               algorithm=algorithm)
        return _dense_body(call, dt, nelems, stride, fill)

    from repro.collectives.broadcast import prepare_broadcast

    _assert_identical(case["n_pes"], make(legacy.legacy_broadcast),
                      make(_eager(prepare_broadcast)))


@given(case=_cases(need_op=True),
       algorithm=st.sampled_from(["binomial", "linear"]))
@_SETTINGS
def test_reduce_equivalence(case, algorithm):
    dt = dtype_of(case["typename"])
    nelems, stride, root, op = (case["nelems"], case["stride"],
                                case["root"], case["op"])
    data = _values(case["seed"], (case["n_pes"], nelems), dt)

    def fill(ctx, dest, src):
        ctx.view(src, dt, nelems, stride)[:] = data[ctx.my_pe()]

    def make(fn):
        def call(ctx, dest, src):
            fn(ctx, dest, src, nelems, stride, root, op, dt,
               algorithm=algorithm)
        return _dense_body(call, dt, nelems, stride, fill)

    from repro.collectives.reduce import prepare_reduce

    _assert_identical(case["n_pes"], make(legacy.legacy_reduce),
                      make(_eager(prepare_reduce)))


@given(case=_cases(need_op=True),
       algorithm=st.sampled_from(["doubling", "rabenseifner"]))
@_SETTINGS
def test_allreduce_equivalence(case, algorithm):
    dt = dtype_of(case["typename"])
    nelems, stride, op = case["nelems"], case["stride"], case["op"]
    data = _values(case["seed"], (case["n_pes"], nelems), dt)

    def fill(ctx, dest, src):
        ctx.view(src, dt, nelems, stride)[:] = data[ctx.my_pe()]

    def make(fn):
        def call(ctx, dest, src):
            fn(ctx, dest, src, nelems, stride, op, dt, algorithm=algorithm)
        return _dense_body(call, dt, nelems, stride, fill)

    from repro.collectives.allreduce import prepare_allreduce

    _assert_identical(case["n_pes"], make(legacy.legacy_allreduce),
                      make(_eager(prepare_allreduce)))


@given(case=_cases(need_op=True), inclusive=st.booleans())
@_SETTINGS
def test_scan_equivalence(case, inclusive):
    dt = dtype_of(case["typename"])
    nelems, stride, op = case["nelems"], case["stride"], case["op"]
    data = _values(case["seed"], (case["n_pes"], nelems), dt)

    def fill(ctx, dest, src):
        ctx.view(src, dt, nelems, stride)[:] = data[ctx.my_pe()]

    def make(fn):
        def call(ctx, dest, src):
            fn(ctx, dest, src, nelems, stride, op, dt, inclusive=inclusive)
        return _dense_body(call, dt, nelems, stride, fill)

    from repro.collectives.scan import prepare_scan

    _assert_identical(case["n_pes"], make(legacy.legacy_scan),
                      make(_eager(prepare_scan)))


# -- vector collectives (ragged counts, zero-count PEs) --------------------


@st.composite
def _ragged_cases(draw):
    n_pes = draw(st.integers(1, 16))
    counts = draw(st.lists(st.integers(0, 4), min_size=n_pes,
                           max_size=n_pes))
    disps, off = [], 0
    for c in counts:
        disps.append(off)
        off += c
    if draw(st.booleans()) and n_pes > 1:
        # Shuffled, gapped layout: displacements need not be packed.
        extra = draw(st.integers(0, 3))
        disps = [d + i * 0 + extra for i, d in enumerate(disps)]
    return {
        "n_pes": n_pes,
        "root": draw(st.integers(0, n_pes - 1)),
        "typename": draw(st.sampled_from(_TYPENAMES)),
        "counts": counts,
        "disps": disps,
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _vector_extent(counts, disps):
    return max((d + c for d, c in zip(disps, counts)), default=0)


@given(case=_ragged_cases())
@_SETTINGS
def test_scatter_equivalence(case):
    dt = dtype_of(case["typename"])
    n_pes, root = case["n_pes"], case["root"]
    counts, disps = case["counts"], case["disps"]
    nelems = sum(counts)
    extent = _vector_extent(counts, disps)
    data = _values(case["seed"], extent, dt)

    def make(fn):
        def body(ctx):
            ctx.init()
            me = ctx.my_pe()
            src = ctx.malloc(max(extent * dt.itemsize, 16))
            dest = ctx.private_malloc(max(max(counts, default=0), 1)
                                      * dt.itemsize + 16)
            if me == root:
                ctx.view(src, dt, extent)[:] = data
            fn(ctx, dest, src, counts, disps, nelems, root, dt)
            got = np.array(ctx.view(dest, dt, counts[me]), copy=True)
            ctx.close()
            return got
        return body

    from repro.collectives.scatter import prepare_scatter

    _assert_identical(n_pes, make(legacy.legacy_scatter),
                      make(_eager(prepare_scatter)))


@given(case=_ragged_cases())
@_SETTINGS
def test_gather_equivalence(case):
    dt = dtype_of(case["typename"])
    n_pes, root = case["n_pes"], case["root"]
    counts, disps = case["counts"], case["disps"]
    nelems = sum(counts)
    extent = _vector_extent(counts, disps)

    def make(fn):
        def body(ctx):
            ctx.init()
            me = ctx.my_pe()
            src = ctx.malloc(max(max(counts, default=0), 1)
                             * dt.itemsize + 16)
            dest = ctx.private_malloc(max(extent * dt.itemsize, 16))
            ctx.view(dest, dt, extent)[:] = 0
            ctx.view(src, dt, counts[me])[:] = \
                _values(case["seed"] + me, counts[me], dt)
            fn(ctx, dest, src, counts, disps, nelems, root, dt)
            got = np.array(ctx.view(dest, dt, extent), copy=True)
            ctx.close()
            return got
        return body

    from repro.collectives.gather import prepare_gather

    _assert_identical(n_pes, make(legacy.legacy_gather),
                      make(_eager(prepare_gather)))


@given(case=_ragged_cases())
@_SETTINGS
def test_allgather_tree_equivalence(case):
    """The default ``tree`` allgather must match the legacy composition
    of a gather and a broadcast — as one chained schedule it is one call
    with one span of stages (see :func:`_assert_chained`)."""
    dt = dtype_of(case["typename"])
    n_pes = case["n_pes"]
    counts = case["counts"]
    disps, off = [], 0
    for c in counts:  # tree allgather broadcasts the packed dest
        disps.append(off)
        off += c
    nelems = sum(counts)
    extent = _vector_extent(counts, disps)

    def make(fn):
        def body(ctx):
            ctx.init()
            me = ctx.my_pe()
            src = ctx.malloc(max(max(counts, default=0), 1)
                             * dt.itemsize + 16)
            dest = ctx.malloc(max(extent * dt.itemsize, 16))
            ctx.view(dest, dt, extent)[:] = 0
            ctx.view(src, dt, counts[me])[:] = \
                _values(case["seed"] + me, counts[me], dt)
            fn(ctx, dest, src, counts, disps, nelems, dt)
            got = np.array(ctx.view(dest, dt, extent), copy=True)
            ctx.close()
            return got
        return body

    from repro.collectives.extra import prepare_allgather

    _assert_chained(n_pes, make(legacy.legacy_allgather),
                    make(_eager(prepare_allgather)), "allgather:tree")


@given(n_pes=st.integers(1, 16), nelems_per_pe=st.integers(0, 4),
       typename=st.sampled_from(_TYPENAMES),
       seed=st.integers(0, 2**32 - 1))
@_SETTINGS
def test_alltoall_equivalence(n_pes, nelems_per_pe, typename, seed):
    dt = dtype_of(typename)
    total = n_pes * nelems_per_pe
    data = _values(seed, (n_pes, total), dt)

    def make(fn):
        def body(ctx):
            ctx.init()
            me = ctx.my_pe()
            nbytes = max(total * dt.itemsize, 16)
            src = ctx.malloc(nbytes)
            dest = ctx.malloc(nbytes)
            ctx.view(dest, dt, total)[:] = 0
            ctx.view(src, dt, total)[:] = data[me]
            fn(ctx, dest, src, nelems_per_pe, dt)
            got = np.array(ctx.view(dest, dt, total), copy=True)
            ctx.close()
            return got
        return body

    from repro.collectives.extra import prepare_alltoall

    _assert_identical(n_pes, make(legacy.legacy_alltoall),
                      make(_eager(prepare_alltoall)))


# -- algorithm differentials (no legacy twin: algorithms must agree) -------
#
# The PAT schedules have no frozen legacy reference, so their oracle is
# the *other* algorithm for the same collective: on every
# hypothesis-drawn irregular shape (non-power-of-two groups, ragged
# counts, zero-count PEs) the dest bytes must match element for element
# — including with the payload pipelined over several segments.


def _assert_same_output(n_pes, body_a, body_b, label):
    out_a = Machine(small_config(n_pes)).run(body_a)
    out_b = Machine(small_config(n_pes)).run(body_b)
    for pe, (ga, gb) in enumerate(zip(out_a, out_b)):
        assert np.array_equal(ga, gb), f"{label}: PE {pe} differs"


@given(case=_ragged_cases(), segments=st.integers(1, 5))
@_SETTINGS
def test_allgather_pat_matches_dissemination(case, segments):
    """Dest-direct PAT allgather ≡ dissemination on irregular shapes."""
    dt = dtype_of(case["typename"])
    n_pes = case["n_pes"]
    counts, disps = case["counts"], case["disps"]
    nelems = sum(counts)
    extent = _vector_extent(counts, disps)

    def make(algorithm):
        def body(ctx):
            ctx.init()
            me = ctx.my_pe()
            src = ctx.malloc(max(max(counts, default=0), 1)
                             * dt.itemsize + 16)
            dest = ctx.malloc(max(extent * dt.itemsize, 16))
            ctx.view(dest, dt, extent)[:] = 0
            ctx.view(src, dt, counts[me])[:] = \
                _values(case["seed"] + me, counts[me], dt)
            ctx.allgather(dest, src, counts, disps, nelems, dt,
                          algorithm=algorithm, segments=segments)
            got = np.array(ctx.view(dest, dt, extent), copy=True)
            ctx.close()
            return got
        return body

    _assert_same_output(n_pes, make("dissemination"), make("pat"),
                        f"allgather pat segments={segments}")


@given(case=_ragged_cases(), segments=st.integers(1, 5),
       op=st.sampled_from(["sum", "min", "max"]))
@_SETTINGS
def test_reduce_scatter_pat_matches_ring(case, segments, op):
    """PAT reduce-scatter ≡ ring on irregular shapes, any segments."""
    dt = dtype_of(case["typename"])
    n_pes = case["n_pes"]
    counts, disps = case["counts"], case["disps"]
    nelems = sum(counts)
    extent = _vector_extent(counts, disps)

    def make(algorithm):
        def body(ctx):
            ctx.init()
            me = ctx.my_pe()
            src = ctx.private_malloc(max(extent * dt.itemsize, 16))
            dest = ctx.private_malloc(max(max(counts, default=0), 1)
                                      * dt.itemsize + 16)
            ctx.view(src, dt, extent)[:] = \
                _values(case["seed"] + me, extent, dt)
            ctx.view(dest, dt, counts[me])[:] = 0
            ctx.reduce_scatter(dest, src, counts, disps, nelems, op, dt,
                               algorithm=algorithm, segments=segments)
            got = np.array(ctx.view(dest, dt, counts[me]), copy=True)
            ctx.close()
            return got
        return body

    _assert_same_output(n_pes, make("ring"), make("pat"),
                        f"reduce_scatter pat segments={segments}")
