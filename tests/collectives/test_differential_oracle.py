"""Property-based differential tests: collectives vs numpy oracles.

Hypothesis drives random group sizes (1–12 PEs, including non-powers of
two), roots, Table 1 dtypes, element counts, strides and the tracing
flag; each case runs the real simulated machine and compares every PE's
result against a straight numpy computation.

Numeric exactness: payload values are small non-negative integers
(``0..7``), which are exact in every Table 1 dtype — float rounding
cannot occur at these magnitudes, sums stay inside even ``int8``, and
the bitwise ops are order-independent — so the tree's fold order can
never differ from the oracle's.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.collectives.ops import identity_of
from repro.runtime import Machine
from repro.types import INTEGRAL_TYPENAMES, dtype_of

from ..conftest import small_config

#: Largest payload value; 12 PEs * 7 = 84 stays exact even in int8.
_MAX_VAL = 7

#: A spread of Table 1 rows: every width class, signed/unsigned, floats.
_TYPENAMES = ("char", "uchar", "short", "ushort", "int", "uint32",
              "long", "uint64", "float", "double", "longdouble")

_NP_OPS = {
    "sum": np.add,
    "min": np.minimum,
    "max": np.maximum,
    "and": np.bitwise_and,
    "or": np.bitwise_or,
    "xor": np.bitwise_xor,
}

_SETTINGS = settings(max_examples=20, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@st.composite
def cases(draw, *, need_op: bool = False, max_stride: int = 2) -> dict:
    n_pes = draw(st.integers(1, 12))
    typename = draw(st.sampled_from(_TYPENAMES))
    case = {
        "n_pes": n_pes,
        "root": draw(st.integers(0, n_pes - 1)),
        "typename": typename,
        "nelems": draw(st.integers(0, 6)),
        "stride": draw(st.integers(1, max_stride)),
        "trace": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }
    if need_op:
        ops = ["sum", "min", "max"]
        if typename in INTEGRAL_TYPENAMES:
            ops += ["and", "or", "xor"]
        case["op"] = draw(st.sampled_from(ops))
    return case


def _values(seed: int, shape, dtype: np.dtype) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, _MAX_VAL + 1, size=shape).astype(dtype)


def _machine(case: dict) -> Machine:
    return Machine(small_config(case["n_pes"]), trace=case["trace"])


def _span(nelems: int, stride: int, dtype: np.dtype) -> int:
    return max(dtype.itemsize * ((max(nelems, 1) - 1) * stride + 1), 16)


@given(case=cases())
@_SETTINGS
def test_broadcast_matches_oracle(case):
    dt = dtype_of(case["typename"])
    nelems, stride, root = case["nelems"], case["stride"], case["root"]
    data = _values(case["seed"], nelems, dt)
    nbytes = _span(nelems, stride, dt)

    def body(ctx):
        ctx.init()
        dest = ctx.malloc(nbytes)
        src = ctx.private_malloc(nbytes)
        ctx.view(dest, dt, nelems, stride)[:] = 0
        if ctx.my_pe() == root:
            ctx.view(src, dt, nelems, stride)[:] = data
        from repro.collectives import COLLECTIVES, prepare

        prepare(ctx, COLLECTIVES["broadcast"], dest, src, nelems, stride,
                root, dt).run(ctx)
        got = np.array(ctx.view(dest, dt, nelems, stride), copy=True)
        ctx.close()
        return got

    for got in _machine(case).run(body):
        assert np.array_equal(got, data)


@given(case=cases(need_op=True))
@_SETTINGS
def test_reduce_matches_oracle(case):
    dt = dtype_of(case["typename"])
    nelems, stride, root, op = (case["nelems"], case["stride"],
                                case["root"], case["op"])
    data = _values(case["seed"], (case["n_pes"], nelems), dt)
    expect = _NP_OPS[op].reduce(data, axis=0) if nelems else data[0]
    nbytes = _span(nelems, stride, dt)

    def body(ctx):
        ctx.init()
        src = ctx.malloc(nbytes)
        dest = ctx.private_malloc(nbytes)
        ctx.view(src, dt, nelems, stride)[:] = data[ctx.my_pe()]
        from repro.collectives import COLLECTIVES, prepare

        prepare(ctx, COLLECTIVES["reduce"], dest, src, nelems, stride, root,
                op, dt).run(ctx)
        got = np.array(ctx.view(dest, dt, nelems, stride), copy=True)
        ctx.close()
        return got

    results = _machine(case).run(body)
    assert np.array_equal(results[root], expect.astype(dt))


@given(case=cases(max_stride=1), msgs_seed=st.integers(0, 2**32 - 1))
@_SETTINGS
def test_scatter_matches_oracle(case, msgs_seed):
    dt = dtype_of(case["typename"])
    n_pes, root = case["n_pes"], case["root"]
    rng = np.random.default_rng(msgs_seed)
    pe_msgs = rng.integers(0, 4, size=n_pes).tolist()
    pe_disp = np.concatenate([[0], np.cumsum(pe_msgs)[:-1]]).tolist()
    nelems = int(sum(pe_msgs))
    data = _values(case["seed"], nelems, dt)

    def body(ctx):
        ctx.init()
        me = ctx.my_pe()
        src = ctx.private_malloc(max(nelems * dt.itemsize, 16))
        dest = ctx.malloc(max(max(pe_msgs) * dt.itemsize, 16))
        if me == root:
            ctx.view(src, dt, nelems, 1)[:] = data
        from repro.collectives import COLLECTIVES, prepare

        prepare(ctx, COLLECTIVES["scatter"], dest, src, pe_msgs, pe_disp,
                nelems, root, dt).run(ctx)
        got = np.array(ctx.view(dest, dt, pe_msgs[me], 1), copy=True)
        ctx.close()
        return got

    results = _machine(case).run(body)
    for pe, got in enumerate(results):
        lo = pe_disp[pe]
        assert np.array_equal(got, data[lo:lo + pe_msgs[pe]])


@given(case=cases(max_stride=1), msgs_seed=st.integers(0, 2**32 - 1))
@_SETTINGS
def test_gather_matches_oracle(case, msgs_seed):
    dt = dtype_of(case["typename"])
    n_pes, root = case["n_pes"], case["root"]
    rng = np.random.default_rng(msgs_seed)
    pe_msgs = rng.integers(0, 4, size=n_pes).tolist()
    pe_disp = np.concatenate([[0], np.cumsum(pe_msgs)[:-1]]).tolist()
    nelems = int(sum(pe_msgs))
    data = _values(case["seed"], nelems, dt)

    def body(ctx):
        ctx.init()
        me = ctx.my_pe()
        src = ctx.private_malloc(max(max(pe_msgs) * dt.itemsize, 16))
        dest = ctx.malloc(max(nelems * dt.itemsize, 16))
        lo = pe_disp[me]
        ctx.view(src, dt, pe_msgs[me], 1)[:] = data[lo:lo + pe_msgs[me]]
        from repro.collectives import COLLECTIVES, prepare

        prepare(ctx, COLLECTIVES["gather"], dest, src, pe_msgs, pe_disp,
                nelems, root, dt).run(ctx)
        got = np.array(ctx.view(dest, dt, nelems, 1), copy=True)
        ctx.close()
        return got

    results = _machine(case).run(body)
    assert np.array_equal(results[root], data)


@given(case=cases(need_op=True),
       algorithm=st.sampled_from(["doubling", "rabenseifner", "ring"]))
@_SETTINGS
def test_allreduce_matches_oracle(case, algorithm):
    dt = dtype_of(case["typename"])
    nelems, stride, op = case["nelems"], case["stride"], case["op"]
    data = _values(case["seed"], (case["n_pes"], nelems), dt)
    expect = (_NP_OPS[op].reduce(data, axis=0) if nelems
              else data[0]).astype(dt)
    nbytes = _span(nelems, stride, dt)

    def body(ctx):
        ctx.init()
        src = ctx.malloc(nbytes)
        dest = ctx.private_malloc(nbytes)
        ctx.view(src, dt, nelems, stride)[:] = data[ctx.my_pe()]
        from repro.collectives import COLLECTIVES, prepare

        prepare(ctx, COLLECTIVES["allreduce"], dest, src, nelems, stride, op,
                dt, algorithm=algorithm).run(ctx)
        got = np.array(ctx.view(dest, dt, nelems, stride), copy=True)
        ctx.close()
        return got

    for got in _machine(case).run(body):
        assert np.array_equal(got, expect)


@given(case=cases(need_op=True), inclusive=st.booleans())
@_SETTINGS
def test_scan_matches_oracle(case, inclusive):
    dt = dtype_of(case["typename"])
    nelems, stride, op = case["nelems"], case["stride"], case["op"]
    n_pes = case["n_pes"]
    data = _values(case["seed"], (n_pes, nelems), dt)
    ufunc = _NP_OPS[op]
    nbytes = _span(nelems, stride, dt)

    def oracle(pe: int) -> np.ndarray:
        if not inclusive:
            if pe == 0:
                return np.full(nelems, identity_of(op, dt), dtype=dt)
            return ufunc.reduce(data[:pe], axis=0).astype(dt)
        return ufunc.reduce(data[:pe + 1], axis=0).astype(dt)

    def body(ctx):
        ctx.init()
        src = ctx.malloc(nbytes)
        dest = ctx.private_malloc(nbytes)
        ctx.view(src, dt, nelems, stride)[:] = data[ctx.my_pe()]
        from repro.collectives import COLLECTIVES, prepare

        prepare(ctx, COLLECTIVES["scan"], dest, src, nelems, stride, op, dt,
                inclusive=inclusive).run(ctx)
        got = np.array(ctx.view(dest, dt, nelems, stride), copy=True)
        ctx.close()
        return got

    results = _machine(case).run(body)
    for pe, got in enumerate(results):
        if nelems:
            assert np.array_equal(got, oracle(pe))
