"""Compiled collectives against digests frozen on the pre-IR code's twin.

The collectives once ran as inline tree walks.  When compiled
schedules replaced them, a verbatim copy of the old walks checked them:
each collective ran twice — once through the old code, once through the
compiled path — on two machines with identical configuration and
inputs, and the two runs had to agree on *everything observable*:

* every PE's output buffer, element for element;
* the statistics counters (puts/gets, bytes moved, remote transfer
  counts, barriers, per-algorithm collective-call tallies);
* the recorded span events — same order, same PEs, same
  ``collective:``/``stage:`` tags, same attribute payloads, same start
  times and durations;
* the simulated makespan.

That copy is gone.  Before it went, every case in :data:`CASES` was
checked against it with those assertions (the tree allgather, which the
old code composed of a gather and a broadcast, with the chained-call
relaxation: one call and one collective span per PE in place of the
inner calls'), and then the compiled path's observables were frozen as
one sha256 per case in ``equivalence_digests.json``.  The cases are a
fixed list over what the old property tests drew: group sizes 1–16
(either side of every power of two), varied roots, element counts 0–6,
strides 1 and 2, the ops sum/min/max, four dtypes, and for the vector
collectives ragged counts with zero-count PEs and gapped displacements.

Calls go through the context front doors, so the digests pin what a
program sees, whatever sits behind them.  To regenerate after an
*intended* change of the model:
``PYTHONPATH=src python -m tests.collectives.test_schedule_equivalence``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.runtime import Machine
from repro.types import dtype_of

from ..conftest import small_config

GOLDEN_PATH = Path(__file__).with_name("equivalence_digests.json")

_SETTINGS = settings(max_examples=15, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

_TYPENAMES = ("long", "int", "double", "float")
_OPS = ("sum", "min", "max")

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


def _digest(observed) -> str:
    outputs, stats, spans, elapsed = observed
    h = hashlib.sha256()
    for got in outputs:
        h.update(f"{got.dtype}{got.shape}".encode())
        h.update(got.tobytes())
    h.update(repr((sorted(stats.items()), spans, elapsed)).encode())
    return h.hexdigest()[:20]


# -- the cases -------------------------------------------------------------


def _dense_cases(variants, *, need_op=False):
    """One case per PE count 1–16 and variant, the parameters cycling
    so every root position, count 0–6, stride, dtype and op appears."""
    cases = []
    for n_pes in range(1, 17):
        for i, variant in enumerate(variants):
            k = n_pes + i
            case = {
                "n_pes": n_pes,
                "root": (7 * n_pes // 2 + 3 * i) % n_pes,
                "typename": _TYPENAMES[k % 4],
                "nelems": (5 * n_pes + 3 * i) % 7,
                "stride": 1 + k % 2,
                "seed": 1000 * n_pes + i,
                "variant": variant,
            }
            if need_op:
                case["op"] = _OPS[(n_pes + 2 * i) % 3]
            cases.append(case)
    return cases


def _ragged_cases(*, gapped=True):
    """Ragged counts 0–4 per PE (a zero-count PE in most), packed
    displacements shifted by a gap on every other PE count."""
    cases = []
    for n_pes in range(1, 17):
        rng = np.random.default_rng(n_pes)
        counts = [int(c) for c in rng.integers(0, 5, n_pes)]
        if n_pes > 2:
            counts[n_pes // 3] = 0
        disps = np.concatenate(([0], np.cumsum(counts)[:-1]))
        if gapped and n_pes > 1 and n_pes % 2:
            disps = disps + n_pes % 4
        cases.append({
            "n_pes": n_pes,
            "root": (5 * n_pes // 3) % n_pes,
            "typename": _TYPENAMES[n_pes % 4],
            "counts": counts,
            "disps": [int(d) for d in disps],
            "seed": 7000 + n_pes,
        })
    return cases


def _alltoall_cases():
    return [{"n_pes": n_pes, "nelems_per_pe": n_pes % 5,
             "typename": _TYPENAMES[n_pes % 4], "seed": 9000 + n_pes}
            for n_pes in range(1, 17)]


CASES = {
    "broadcast": _dense_cases(("binomial", "linear", "ring")),
    "reduce": _dense_cases(("binomial", "linear"), need_op=True),
    "allreduce": _dense_cases(("doubling", "rabenseifner"), need_op=True),
    "scan": _dense_cases((True, False), need_op=True),
    "scatter": _ragged_cases(),
    "gather": _ragged_cases(),
    "allgather": _ragged_cases(gapped=False),
    "alltoall": _alltoall_cases(),
}


def case_id(name: str, case: dict) -> str:
    return f"{name}:" + " ".join(f"{k}={v}" for k, v in case.items()
                                 if k != "seed")


# -- the bodies ------------------------------------------------------------
#
# ``fn`` takes the collective's arguments after ``ctx``, in the order of
# the context method of the same name.


def _span_nbytes(nelems, stride, dt):
    return max(dt.itemsize * ((max(nelems, 1) - 1) * stride + 1), 16)


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


def _dense(name, case, fn):
    dt = dtype_of(case["typename"])
    nelems, stride, root = case["nelems"], case["stride"], case["root"]
    variant = case["variant"]
    if name == "broadcast":
        data = _values(case["seed"], nelems, dt)

        def fill(ctx, dest, src):
            if ctx.my_pe() == root:
                ctx.view(src, dt, nelems, stride)[:] = data
    else:
        data = _values(case["seed"], (case["n_pes"], nelems), dt)

        def fill(ctx, dest, src):
            ctx.view(src, dt, nelems, stride)[:] = data[ctx.my_pe()]

    def call(ctx, dest, src):
        if name == "broadcast":
            fn(ctx, dest, src, nelems, stride, root, dt, algorithm=variant)
        elif name == "reduce":
            fn(ctx, dest, src, nelems, stride, root, case["op"], dt,
               algorithm=variant)
        elif name == "allreduce":
            fn(ctx, dest, src, nelems, stride, case["op"], dt,
               algorithm=variant)
        else:
            fn(ctx, dest, src, nelems, stride, case["op"], dt,
               inclusive=variant)

    return _dense_body(call, dt, nelems, stride, fill)


def _vector_extent(counts, disps):
    return max((d + c for d, c in zip(disps, counts)), default=0)


def _vector(name, case, fn):
    dt = dtype_of(case["typename"])
    root = case["root"]
    counts, disps = case["counts"], case["disps"]
    nelems = sum(counts)
    extent = _vector_extent(counts, disps)
    biggest = max(max(counts, default=0), 1) * dt.itemsize + 16
    whole = max(extent * dt.itemsize, 16)
    data = _values(case["seed"], extent, dt)

    def body(ctx):
        ctx.init()
        me = ctx.my_pe()
        if name == "scatter":
            src = ctx.malloc(whole)
            dest = ctx.private_malloc(biggest)
            if me == root:
                ctx.view(src, dt, extent)[:] = data
            fn(ctx, dest, src, counts, disps, nelems, root, dt)
            got = np.array(ctx.view(dest, dt, counts[me]), copy=True)
        else:
            src = ctx.malloc(biggest)
            dest = (ctx.private_malloc(whole) if name == "gather"
                    else ctx.malloc(whole))
            ctx.view(dest, dt, extent)[:] = 0
            ctx.view(src, dt, counts[me])[:] = \
                _values(case["seed"] + me, counts[me], dt)
            if name == "gather":
                fn(ctx, dest, src, counts, disps, nelems, root, dt)
            else:
                fn(ctx, dest, src, counts, disps, nelems, dt)
            got = np.array(ctx.view(dest, dt, extent), copy=True)
        ctx.close()
        return got

    return body


def _alltoall(case, fn):
    dt = dtype_of(case["typename"])
    n_pes, per_pe = case["n_pes"], case["nelems_per_pe"]
    total = n_pes * per_pe
    data = _values(case["seed"], (n_pes, total), dt)

    def body(ctx):
        ctx.init()
        me = ctx.my_pe()
        nbytes = max(total * dt.itemsize, 16)
        src = ctx.malloc(nbytes)
        dest = ctx.malloc(nbytes)
        ctx.view(dest, dt, total)[:] = 0
        ctx.view(src, dt, total)[:] = data[me]
        fn(ctx, dest, src, per_pe, dt)
        got = np.array(ctx.view(dest, dt, total), copy=True)
        ctx.close()
        return got

    return body


def make_body(name: str, case: dict, fn):
    """The SPMD body running collective ``name`` on ``case`` via ``fn``."""
    if name in ("broadcast", "reduce", "allreduce", "scan"):
        return _dense(name, case, fn)
    if name == "alltoall":
        return _alltoall(case, fn)
    return _vector(name, case, fn)


def front_door(name: str):
    """``fn`` for :func:`make_body`: the context method ``name``."""
    def call(ctx, *args, **kwargs):
        getattr(ctx, name)(*args, **kwargs)
    return call


def digests(name: str) -> dict[str, str]:
    return {case_id(name, case): _digest(_observe(
                case["n_pes"], make_body(name, case, front_door(name))))
            for case in CASES[name]}


def _check(name: str) -> None:
    golden = json.loads(GOLDEN_PATH.read_text())
    got = digests(name)
    want = {k: v for k, v in golden.items() if k.startswith(name + ":")}
    assert got.keys() == want.keys()
    bad = [k for k in got if got[k] != want[k]]
    assert not bad, f"{len(bad)} of {len(got)} cases differ: {bad[:4]}"


def test_broadcast_equivalence():
    _check("broadcast")


def test_reduce_equivalence():
    _check("reduce")


def test_allreduce_equivalence():
    _check("allreduce")


def test_scan_equivalence():
    _check("scan")


def test_scatter_equivalence():
    _check("scatter")


def test_gather_equivalence():
    _check("gather")


def test_allgather_tree_equivalence():
    """The default ``tree`` allgather: one chained schedule, one call."""
    _check("allgather")


def test_alltoall_equivalence():
    _check("alltoall")


# -- algorithm differentials (no frozen twin: algorithms must agree) -------
#
# The PAT schedules never had a pre-IR twin, so their oracle is the
# *other* algorithm for the same collective: on every hypothesis-drawn
# irregular shape (non-power-of-two groups, ragged counts, zero-count
# PEs) the dest bytes must match element for element — including with
# the payload pipelined over several segments.


@st.composite
def _drawn_ragged(draw):
    n_pes = draw(st.integers(1, 16))
    counts = draw(st.lists(st.integers(0, 4), min_size=n_pes,
                           max_size=n_pes))
    disps, off = [], 0
    for c in counts:
        disps.append(off)
        off += c
    if draw(st.booleans()) and n_pes > 1:
        # Gapped layout: displacements need not start at zero.
        extra = draw(st.integers(0, 3))
        disps = [d + extra for d in disps]
    return {
        "n_pes": n_pes,
        "typename": draw(st.sampled_from(_TYPENAMES)),
        "counts": counts,
        "disps": disps,
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _assert_same_output(n_pes, body_a, body_b, label):
    out_a = Machine(small_config(n_pes)).run(body_a)
    out_b = Machine(small_config(n_pes)).run(body_b)
    for pe, (ga, gb) in enumerate(zip(out_a, out_b)):
        assert np.array_equal(ga, gb), f"{label}: PE {pe} differs"


@given(case=_drawn_ragged(), segments=st.integers(1, 5))
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


@given(case=_drawn_ragged(), segments=st.integers(1, 5),
       op=st.sampled_from(_OPS))
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


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    table: dict = {}
    for name in CASES:
        table.update(digests(name))
    GOLDEN_PATH.write_text(json.dumps(table, indent=0, sort_keys=True)
                           + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN_PATH}")
