"""Cross-backend conformance: byte-identical collectives, sim vs mp vs vec.

Every collective compiles to one schedule executed purely through the
PE context protocol, so the *same* program must produce byte-identical
output buffers on the deterministic simulator, on true-parallel worker
processes and on the vectorized batch evaluator.  This suite runs one
generic driver program per (collective, payload) pair on all three
backends at 1-16 PEs — including non-powers-of-two, ragged counts and
zero counts — and compares the raw result bytes.  At 1-8 PEs every
case additionally runs on the simulator's *mailbox* transport
(``transport="mailbox"``), which lowers each compiled schedule onto
matched send/recv pairs; those bytes must equal the one-sided run too.

The driver returns only bytes the collective's contract defines (the
root's dest for rooted calls, each rank's slice for scatter, ...);
untouched memory differs by construction (fresh zeroed machine vs
reused shared segments) and is exactly what the contract does not
promise.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ..conftest import small_config

#: PE counts swept by every conformance case (non-powers-of-2 included).
PE_COUNTS = (1, 2, 3, 4, 8, 16)

_DTYPES = (np.dtype(np.int64), np.dtype(np.uint64), np.dtype(np.int32),
           np.dtype(np.float64))
_INT_DTYPES = tuple(dt for dt in _DTYPES if dt.kind in "iu")


def _payload(rank: int, nelems: int, dtype: np.dtype,
             seed: int) -> np.ndarray:
    """Deterministic per-rank input data, safe for every op/dtype."""
    raw = (np.arange(nelems, dtype=np.int64) * 13 + rank * 5 + seed) % 23
    if dtype.kind == "u":
        return raw.astype(dtype)
    if dtype.kind == "i":
        return (raw - 11).astype(dtype)
    return ((raw - 11) * 0.5).astype(dtype)


def _alloc_strided(ctx, nelems: int, stride: int, itemsize: int) -> int:
    span = ((max(nelems, 1) - 1) * stride + 1) * itemsize
    return ctx.malloc(max(span, 16))


def _collective_program(ctx, spec: dict) -> bytes:
    """Run one collective per ``spec``; return its contract-defined bytes.

    Top-level (picklable) so the multiprocessing backend can ship it to
    the PE workers; the simulator calls it directly.
    """
    kind = spec["kind"]
    dt = spec["dtype"]
    nelems = spec.get("nelems", 0)
    stride = spec.get("stride", 1)
    seed = spec.get("seed", 0)
    root = spec.get("root", 0)
    op = spec.get("op", "sum")

    ctx.init()
    me, n = ctx.my_pe(), ctx.num_pes()
    out = b""

    def read(addr: int, count: int) -> bytes:
        return ctx.view(addr, dt, count, stride).copy().tobytes()

    if kind in ("broadcast", "ibroadcast", "resilient_broadcast"):
        src = _alloc_strided(ctx, nelems, stride, dt.itemsize)
        dest = _alloc_strided(ctx, nelems, stride, dt.itemsize)
        if me == root:
            ctx.view(src, dt, nelems, stride)[:] = _payload(
                root, nelems, dt, seed)
        ctx.barrier()
        if kind == "broadcast":
            ctx.broadcast(dest, src, nelems, stride, root, dt)
        elif kind == "ibroadcast":
            from repro.collectives.nonblocking import ibroadcast

            ibroadcast(ctx, dest, src, nelems, stride, root, dt).wait()
        else:
            res = ctx.resilient_broadcast(dest, src, nelems, stride, root,
                                          dt)
            assert res.complete and not res.restarts
        out = read(dest, nelems)
    elif kind in ("reduce", "ireduce", "resilient_reduce"):
        src = _alloc_strided(ctx, nelems, stride, dt.itemsize)
        dest = _alloc_strided(ctx, nelems, stride, dt.itemsize)
        ctx.view(src, dt, nelems, stride)[:] = _payload(me, nelems, dt, seed)
        ctx.barrier()
        if kind == "reduce":
            ctx.reduce(dest, src, nelems, stride, root, op, dt)
        elif kind == "ireduce":
            from repro.collectives.nonblocking import ireduce

            ireduce(ctx, dest, src, nelems, stride, root, op, dt).wait()
        else:
            res = ctx.resilient_reduce(dest, src, nelems, stride, root,
                                       op, dt)
            assert res.complete and res.contributors == tuple(range(n))
        out = read(dest, nelems) if me == root else b""
    elif kind in ("allreduce", "scan", "resilient_allreduce"):
        src = _alloc_strided(ctx, nelems, stride, dt.itemsize)
        dest = _alloc_strided(ctx, nelems, stride, dt.itemsize)
        ctx.view(src, dt, nelems, stride)[:] = _payload(me, nelems, dt, seed)
        ctx.barrier()
        if kind == "allreduce":
            ctx.allreduce(dest, src, nelems, stride, op, dt,
                          algorithm=spec.get("algorithm", "doubling"),
                          segments=spec.get("segments"))
        elif kind == "scan":
            ctx.scan(dest, src, nelems, stride, op, dt,
                     inclusive=spec.get("inclusive", True))
        else:
            res = ctx.resilient_allreduce(dest, src, nelems, stride, op, dt)
            assert res.complete
        out = read(dest, nelems)
    elif kind in ("scatter", "iscatter"):
        counts, disps = spec["counts"], spec["disps"]
        total = sum(counts)
        extent = max((d + c for d, c in zip(disps, counts)), default=0)
        src = ctx.malloc(max(extent * dt.itemsize, 16))
        dest = ctx.malloc(max(max(counts, default=0) * dt.itemsize, 16))
        if me == root:
            ctx.view(src, dt, extent)[:] = _payload(root, extent, dt, seed)
        ctx.barrier()
        if kind == "scatter":
            ctx.scatter(dest, src, counts, disps, total, root, dt)
        else:
            from repro.collectives.nonblocking import iscatter

            iscatter(ctx, dest, src, counts, disps, total, root, dt).wait()
        out = ctx.view(dest, dt, counts[me]).copy().tobytes()
    elif kind in ("gather", "igather", "allgather"):
        counts, disps = spec["counts"], spec["disps"]
        total = sum(counts)
        extent = max((d + c for d, c in zip(disps, counts)), default=0)
        src = ctx.malloc(max(max(counts, default=0) * dt.itemsize, 16))
        dest = ctx.malloc(max(extent * dt.itemsize, 16))
        ctx.view(src, dt, counts[me])[:] = _payload(me, counts[me], dt, seed)
        ctx.barrier()
        if kind == "gather":
            ctx.gather(dest, src, counts, disps, total, root, dt)
            out = (ctx.view(dest, dt, extent).copy().tobytes()
                   if me == root else b"")
        elif kind == "igather":
            from repro.collectives.nonblocking import igather

            igather(ctx, dest, src, counts, disps, total, root, dt).wait()
            out = (ctx.view(dest, dt, extent).copy().tobytes()
                   if me == root else b"")
        else:
            ctx.allgather(dest, src, counts, disps, total, dt,
                          algorithm=spec.get("algorithm", "tree"),
                          segments=spec.get("segments", 1))
            out = ctx.view(dest, dt, extent).copy().tobytes()
    elif kind == "reduce_scatter":
        counts, disps = spec["counts"], spec["disps"]
        total = sum(counts)
        src = ctx.malloc(max(total * dt.itemsize, 16))
        dest = ctx.malloc(max(max(counts, default=0) * dt.itemsize, 16))
        ctx.view(src, dt, total)[:] = _payload(me, total, dt, seed)
        ctx.barrier()
        ctx.reduce_scatter(dest, src, counts, disps, total, op, dt,
                           algorithm=spec.get("algorithm", "auto"),
                           segments=spec.get("segments", 1))
        out = ctx.view(dest, dt, counts[me]).copy().tobytes()
    elif kind == "alltoall":
        blk = spec["block"]
        src = ctx.malloc(max(blk * n * dt.itemsize, 16))
        dest = ctx.malloc(max(blk * n * dt.itemsize, 16))
        ctx.view(src, dt, blk * n)[:] = _payload(me, blk * n, dt, seed)
        ctx.barrier()
        ctx.alltoall(dest, src, blk, dt)
        out = ctx.view(dest, dt, blk * n).copy().tobytes()
    elif kind == "put_ring":
        src = _alloc_strided(ctx, nelems, stride, dt.itemsize)
        dest = _alloc_strided(ctx, nelems, stride, dt.itemsize)
        ctx.view(dest, dt, nelems, stride)[:] = _payload(-1, nelems, dt, 0)
        ctx.view(src, dt, nelems, stride)[:] = _payload(me, nelems, dt, seed)
        ctx.barrier()
        ctx.put(dest, src, nelems, stride, (me + 1) % n, dt)
        ctx.barrier()
        out = read(dest, nelems)
    elif kind == "get_ring":
        src = _alloc_strided(ctx, nelems, stride, dt.itemsize)
        dest = _alloc_strided(ctx, nelems, stride, dt.itemsize)
        ctx.view(src, dt, nelems, stride)[:] = _payload(me, nelems, dt, seed)
        ctx.barrier()
        h = ctx.get_nb(dest, src, nelems, stride, (me + 1) % n, dt)
        ctx.wait(h)
        ctx.quiet()
        out = read(dest, nelems)
    elif kind == "amo":
        cell = ctx.malloc(16)
        if me == 0:
            ctx.view(cell, np.dtype(np.uint64), 1)[0] = seed % 1000
        ctx.barrier()
        # Commutative ops only: the final value is order-independent,
        # which is what makes it comparable across backends.
        ctx.amo(cell, (me + 1) * 3 + seed % 7, 0, op, np.dtype(np.uint64))
        ctx.barrier()
        out = ctx.view_on(0, cell, np.dtype(np.uint64), 1).copy().tobytes()
    elif kind == "superstep_batch":
        # K same-shape allreduces, eager then deferred through one
        # superstep flush (the widened path at stride 1, per-request
        # execution otherwise).  The contract is byte-identity: the
        # deferred results must equal the eager ones on every backend.
        batch = spec.get("batch", 4)
        srcs, eag, dfr = [], [], []
        for j in range(batch):
            srcs.append(_alloc_strided(ctx, nelems, stride, dt.itemsize))
            eag.append(_alloc_strided(ctx, nelems, stride, dt.itemsize))
            dfr.append(_alloc_strided(ctx, nelems, stride, dt.itemsize))
            ctx.view(srcs[j], dt, nelems, stride)[:] = _payload(
                me, nelems, dt, seed + j)
        ctx.barrier()
        for j in range(batch):
            ctx.allreduce(eag[j], srcs[j], nelems, stride, op, dt)
        with ctx.superstep():
            for j in range(batch):
                ctx.allreduce(dfr[j], srcs[j], nelems, stride, op, dt)
        for j in range(batch):
            assert read(dfr[j], nelems) == read(eag[j], nelems), (
                f"superstep batch request {j} diverged from eager")
        out = b"".join(read(dfr[j], nelems) for j in range(batch))
    elif kind == "superstep_mixed":
        # A mixed superstep — broadcast + reduce + allreduce at
        # different roots, scan, tree, dissemination and PAT allgather,
        # alltoall and scatter, plus a deferred ring put — exercising
        # the fused-schedule path and transfer coalescing, checked
        # byte-for-byte against the eager sequence.  A broadcast from a
        # private src in mid-step must flush alone, splitting the batch.
        r2 = (root + 1) % n
        wide = nelems * n
        counts, disps = [nelems] * n, [i * nelems for i in range(n)]
        bufs = {}
        for name in ("b", "r", "a", "p", "s", "v", "g", "q", "t", "c",
                     "h"):
            for suffix in ("src", "eag", "dfr"):
                bufs[name + suffix] = _alloc_strided(ctx, wide, 1,
                                                     dt.itemsize)
            ctx.view(bufs[name + "src"], dt, wide)[:] = _payload(
                me, wide, dt, seed + len(bufs))
        bufs["vsrc"] = ctx.private_malloc(max(nelems * dt.itemsize, 16))
        ctx.view(bufs["vsrc"], dt, nelems)[:] = _payload(me, nelems, dt,
                                                         seed)
        for name in ("peag", "pdfr"):
            ctx.view(bufs[name], dt, nelems)[:] = _payload(-1, nelems,
                                                           dt, 0)
        ctx.barrier()
        peer = (me + 1) % n

        def calls(x):
            ctx.broadcast(bufs["b" + x], bufs["bsrc"], nelems, 1, root, dt)
            ctx.reduce(bufs["r" + x], bufs["rsrc"], nelems, 1, r2, op, dt)
            ctx.allreduce(bufs["a" + x], bufs["asrc"], nelems, 1, op, dt)
            ctx.scan(bufs["s" + x], bufs["ssrc"], nelems, 1, op, dt)
            ctx.broadcast(bufs["v" + x], bufs["vsrc"], nelems, 1, r2, dt)
            for name, algorithm in (("h", "tree"), ("g", "dissemination"),
                                    ("q", "pat")):
                ctx.allgather(bufs[name + x], bufs[name + "src"], counts,
                              disps, wide, dt, algorithm=algorithm)
            ctx.alltoall(bufs["t" + x], bufs["tsrc"], nelems, dt)
            ctx.scatter(bufs["c" + x], bufs["csrc"], counts, disps, wide,
                        root, dt)

        calls("eag")
        ctx.put(bufs["peag"], bufs["psrc"], nelems, 1, peer, dt)
        ctx.barrier()
        with ctx.superstep():
            ctx.put(bufs["pdfr"], bufs["psrc"], nelems, 1, peer, dt)
            calls("dfr")
        ctx.barrier()
        spans = {"b": nelems, "a": nelems, "p": nelems, "s": nelems,
                 "v": nelems, "g": wide, "q": wide, "t": wide,
                 "c": nelems, "h": wide}
        if me == r2:
            spans["r"] = nelems
        for name, count in spans.items():
            assert read(bufs[name + "dfr"], count) == read(
                bufs[name + "eag"], count), (
                f"superstep {name}dfr diverged from eager")
        out = b"".join(read(bufs[name + "dfr"], count)
                       for name, count in spans.items())
    elif kind == "superstep_team":
        # A world broadcast A <- S, then a Team broadcast B <- A and an
        # OpenSHMEM broadcast C <- A, eager and then in one superstep:
        # the Team and ShmemAPI calls must defer behind the world call
        # and read the A it wrote, so B and C match the eager run.
        from repro.baselines.shmem import ShmemAPI
        from repro.collectives.teams import Team

        team = Team(ctx, [r for r in range(n) if r % 2 == me % 2])
        shmem = ShmemAPI(ctx)
        shmem_bcast = shmem.broadcast64 if dt.itemsize == 8 \
            else shmem.broadcast32
        t_root, s_root = root % team.num_pes(), (root + 1) % n
        bufs = {name: _alloc_strided(ctx, nelems, 1, dt.itemsize)
                for name in ("s", "a_eag", "b_eag", "c_eag",
                             "a_dfr", "b_dfr", "c_dfr")}
        if me == root:
            ctx.view(bufs["s"], dt, nelems)[:] = _payload(root, nelems, dt,
                                                          seed)
        for name in ("b_eag", "c_eag", "b_dfr", "c_dfr"):
            # shmem_broadcast leaves the root's C alone: give it bytes.
            ctx.view(bufs[name], dt, nelems)[:] = _payload(-1, nelems, dt, 0)
        ctx.barrier()

        def calls(a, b, c):
            ctx.broadcast(bufs[a], bufs["s"], nelems, 1, root, dt)
            team.broadcast(bufs[b], bufs[a], nelems, 1, t_root, dt)
            shmem_bcast(bufs[c], bufs[a], nelems, s_root)

        calls("a_eag", "b_eag", "c_eag")
        ctx.barrier()
        with ctx.superstep():
            calls("a_dfr", "b_dfr", "c_dfr")
        ctx.barrier()
        for x in "abc":
            assert read(bufs[f"{x}_dfr"], nelems) == read(
                bufs[f"{x}_eag"], nelems), (
                f"superstep {x} diverged from eager")
        out = b"".join(read(bufs[f"{x}_dfr"], nelems) for x in "abc")
    elif kind == "hierarchical":
        # Hierarchical broadcast and reduce (one partitioned schedule
        # each) at a non-zero root over the world, then over a team —
        # every other rank, in descending order — through ``group=``.
        from repro.collectives import COLLECTIVES, prepare

        team = tuple(range(n - 1, -1, -2))
        bufs = {name: _alloc_strided(ctx, nelems, stride, dt.itemsize)
                for name in ("src", "bw", "rw", "bt", "rt")}
        ctx.view(bufs["src"], dt, nelems, stride)[:] = _payload(
            me, nelems, dt, seed)
        ctx.barrier()
        for group, tag, at in ((None, "w", root),
                               (team, "t", root % len(team))):
            if group is None or me in group:
                ctx._issue(prepare(ctx, COLLECTIVES["broadcast"],
                                   bufs["b" + tag], bufs["src"], nelems,
                                   stride, at, dt, algorithm="hierarchical",
                                   group=group))
                ctx._issue(prepare(ctx, COLLECTIVES["reduce"],
                                   bufs["r" + tag], bufs["src"], nelems,
                                   stride, at, op, dt,
                                   algorithm="hierarchical", group=group))
        ctx.barrier()
        out = read(bufs["bw"], nelems)
        if me == root:
            out += read(bufs["rw"], nelems)
        if me in team:
            out += read(bufs["bt"], nelems)
            if me == team[root % len(team)]:
                out += read(bufs["rt"], nelems)
    elif kind == "team_barrier":
        # Two disjoint teams exchange data guarded only by team barriers.
        team = tuple(r for r in range(n) if r % 2 == me % 2)
        dest = ctx.malloc(16)
        ctx.view(dest, np.dtype(np.int64), 1)[0] = -1
        ctx.barrier()
        if len(team) > 1:
            idx = team.index(me)
            peer = team[(idx + 1) % len(team)]
            src = ctx.private_malloc(8)
            ctx.view(src, np.dtype(np.int64), 1)[0] = me * 101 + seed
            ctx.put(dest, src, 1, 1, peer, np.dtype(np.int64))
            ctx.barrier_team(team)
        out = ctx.view(dest, np.dtype(np.int64), 1).copy().tobytes()
    else:  # pragma: no cover - spec typo guard
        raise ValueError(f"unknown conformance kind {kind!r}")

    ctx.close()
    return out


def _run_all(mp_sessions, sim_backend, vec_backend, n_pes: int,
             spec: dict, **config) -> None:
    """Run the spec on every backend/transport and compare per-rank
    bytes, every machine built as ``small_config(n_pes, **config)``."""
    args = [(spec,) for _ in range(n_pes)]
    sim = sim_backend.run(_collective_program, args,
                          config=small_config(n_pes, **config))
    vec = vec_backend.run(_collective_program, args,
                          config=small_config(n_pes, **config))
    assert sim == vec, (
        f"sim/vec divergence for {spec} at {n_pes} PEs: "
        f"{[s[:32] for s in sim]} != {[v[:32] for v in vec]}"
    )
    if n_pes <= 8:
        # The mailbox transport lowers every schedule onto send/recv
        # pairs; results must stay byte-identical to one-sided.  Capped
        # at 8 PEs to keep the per-example simulation cost bounded.
        mbx = sim_backend.run(_collective_program, args,
                              config=small_config(n_pes, **config),
                              transport="mailbox")
        assert sim == mbx, (
            f"onesided/mailbox divergence for {spec} at {n_pes} PEs: "
            f"{[s[:32] for s in sim]} != {[m[:32] for m in mbx]}"
        )
    mp_res = mp_sessions.get(n_pes, **config).run(_collective_program, args)
    assert sim == mp_res, (
        f"sim/mp divergence for {spec} at {n_pes} PEs: "
        f"{[s[:32] for s in sim]} != {[m[:32] for m in mp_res]}"
    )


def _ragged(draw, n_pes: int):
    """Ragged per-PE counts (zeros included) with packed displacements."""
    counts = draw(st.lists(st.integers(0, 4), min_size=n_pes,
                           max_size=n_pes))
    disps, acc = [], 0
    for c in counts:
        disps.append(acc)
        acc += c
    return counts, disps


@st.composite
def _dense_spec(draw):
    return {
        "n_pes": draw(st.sampled_from(PE_COUNTS)),
        "nelems": draw(st.integers(0, 17)),
        "stride": draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 999)),
        "dtype": draw(st.sampled_from(_DTYPES)),
    }


_SETTINGS = settings(
    max_examples=8, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.mark.parametrize("kind", ["broadcast", "ibroadcast",
                                  "resilient_broadcast"])
@given(spec=_dense_spec(), root_pick=st.integers(0, 7))
@_SETTINGS
def test_broadcast_family(mp_sessions, sim_backend, vec_backend, kind,
                          spec, root_pick):
    n = spec.pop("n_pes")
    spec.update(kind=kind, root=root_pick % n)
    _run_all(mp_sessions, sim_backend, vec_backend, n, spec)


@pytest.mark.parametrize("kind", ["reduce", "ireduce", "resilient_reduce"])
@given(spec=_dense_spec(), root_pick=st.integers(0, 7),
       op=st.sampled_from(["sum", "min", "max", "prod", "xor"]))
@_SETTINGS
def test_reduce_family(mp_sessions, sim_backend, vec_backend, kind, spec,
                       root_pick, op):
    n = spec.pop("n_pes")
    if op == "xor" and spec["dtype"].kind == "f":
        spec["dtype"] = np.dtype(np.int64)
    spec.update(kind=kind, root=root_pick % n, op=op)
    _run_all(mp_sessions, sim_backend, vec_backend, n, spec)


@pytest.mark.parametrize("kind,algorithm", [
    ("allreduce", "doubling"),
    ("allreduce", "ring"),
    ("allreduce", "rabenseifner"),
    ("allreduce", "dual-pipelined"),
    ("scan", None),
    ("resilient_allreduce", None),
])
@given(spec=_dense_spec(), op=st.sampled_from(["sum", "min", "max"]),
       inclusive=st.booleans(), segments=st.integers(1, 5))
@_SETTINGS
def test_allreduce_family(mp_sessions, sim_backend, vec_backend, kind,
                          algorithm, spec, op, inclusive, segments):
    n = spec.pop("n_pes")
    spec.update(kind=kind, op=op, inclusive=inclusive)
    if algorithm:
        spec["algorithm"] = algorithm
    if algorithm == "dual-pipelined":
        spec["segments"] = segments
    _run_all(mp_sessions, sim_backend, vec_backend, n, spec)


@given(spec=_dense_spec(), op=st.sampled_from(["sum", "min", "max"]),
       batch=st.integers(2, 6))
@_SETTINGS
def test_superstep_batch(mp_sessions, sim_backend, vec_backend, spec, op,
                         batch):
    """K deferred same-shape allreduces flushed as one superstep stay
    byte-identical to the eager sequence (asserted inside the program)
    AND across sim/mp/vec."""
    n = spec.pop("n_pes")
    spec.update(kind="superstep_batch", op=op, batch=batch)
    _run_all(mp_sessions, sim_backend, vec_backend, n, spec)


@given(spec=_dense_spec(), op=st.sampled_from(["sum", "min", "max"]),
       root_pick=st.integers(0, 7))
@_SETTINGS
def test_superstep_mixed(mp_sessions, sim_backend, vec_backend, spec, op,
                         root_pick):
    """A mixed superstep — deferred put + broadcast + reduce +
    allreduce at different roots, scan, three allgathers, alltoall and
    scatter, split by a private-src broadcast — flushes through the
    fused-schedule path byte-identically to eager on sim, mp, vec and
    the mailbox transport."""
    n = spec.pop("n_pes")
    spec.update(kind="superstep_mixed", op=op, root=root_pick % n,
                stride=1)
    _run_all(mp_sessions, sim_backend, vec_backend, n, spec)


@given(spec=_dense_spec(), root_pick=st.integers(0, 7),
       op=st.sampled_from(["sum", "min", "max"]))
@_SETTINGS
def test_hierarchical(mp_sessions, sim_backend, vec_backend, spec,
                      root_pick, op):
    """Hierarchical broadcast and reduce on ranks dealt round-robin over
    three nodes — world at a non-zero root and a team through
    ``group=`` — are byte-identical on sim, mp, vec and the mailbox
    transport."""
    n = spec.pop("n_pes")
    spec.update(kind="hierarchical", op=op,
                root=1 + root_pick % (n - 1) if n > 1 else 0)
    _run_all(mp_sessions, sim_backend, vec_backend, n, spec,
             cores_per_node=-(-n // 3),
             pe_node_map=tuple(r % 3 for r in range(n)))


@given(spec=_dense_spec(), root_pick=st.integers(0, 7))
@_SETTINGS
def test_superstep_team(mp_sessions, sim_backend, vec_backend, spec,
                        root_pick):
    """World, Team and ShmemAPI broadcasts issued in one superstep flush
    in call order, byte-identically to eager (asserted inside the
    program) and across sim/mp/vec."""
    n = spec.pop("n_pes")
    spec.update(kind="superstep_team", root=root_pick % n, stride=1)
    _run_all(mp_sessions, sim_backend, vec_backend, n, spec)


@pytest.mark.parametrize("kind", ["scatter", "iscatter", "gather",
                                  "igather", "allgather"])
@given(data=st.data())
@_SETTINGS
def test_vector_family(mp_sessions, sim_backend, vec_backend, kind, data):
    n = data.draw(st.sampled_from(PE_COUNTS))
    counts, disps = _ragged(data.draw, n)
    spec = {
        "kind": kind,
        "counts": counts,
        "disps": disps,
        "root": data.draw(st.integers(0, n - 1)),
        "seed": data.draw(st.integers(0, 999)),
        "dtype": data.draw(st.sampled_from(_DTYPES)),
    }
    _run_all(mp_sessions, sim_backend, vec_backend, n, spec)


@pytest.mark.parametrize("kind,algorithm,segments", [
    ("allgather", "dissemination", 1),
    ("allgather", "pat", 1),
    ("allgather", "pat", 3),
    ("reduce_scatter", "ring", 1),
    ("reduce_scatter", "pat", 1),
    ("reduce_scatter", "pat", 3),
])
@given(data=st.data())
@_SETTINGS
def test_vector_algorithms(mp_sessions, sim_backend, vec_backend, kind,
                           algorithm, segments, data):
    """The compiled vector-collective algorithms — including the
    pipelined PAT schedules — stay byte-identical across backends on
    hypothesis-drawn ragged shapes (zero-count PEs included)."""
    n = data.draw(st.sampled_from(PE_COUNTS))
    counts, disps = _ragged(data.draw, n)
    spec = {
        "kind": kind,
        "counts": counts,
        "disps": disps,
        "algorithm": algorithm,
        "segments": segments,
        "op": data.draw(st.sampled_from(["sum", "max"])),
        "seed": data.draw(st.integers(0, 999)),
        "dtype": data.draw(st.sampled_from(_DTYPES)),
    }
    _run_all(mp_sessions, sim_backend, vec_backend, n, spec)


@given(data=st.data())
@_SETTINGS
def test_alltoall(mp_sessions, sim_backend, vec_backend, data):
    n = data.draw(st.sampled_from(PE_COUNTS))
    spec = {
        "kind": "alltoall",
        "block": data.draw(st.integers(1, 4)),
        "seed": data.draw(st.integers(0, 999)),
        "dtype": data.draw(st.sampled_from(_DTYPES)),
    }
    _run_all(mp_sessions, sim_backend, vec_backend, n, spec)


@pytest.mark.parametrize("kind", ["put_ring", "get_ring"])
@given(spec=_dense_spec())
@_SETTINGS
def test_one_sided(mp_sessions, sim_backend, vec_backend, kind, spec):
    n = spec.pop("n_pes")
    spec["kind"] = kind
    _run_all(mp_sessions, sim_backend, vec_backend, n, spec)


@given(data=st.data())
@_SETTINGS
def test_amo(mp_sessions, sim_backend, vec_backend, data):
    n = data.draw(st.sampled_from(PE_COUNTS))
    spec = {
        "kind": "amo",
        "op": data.draw(st.sampled_from(["add", "xor", "min", "max"])),
        "seed": data.draw(st.integers(0, 999)),
        "dtype": np.dtype(np.uint64),
    }
    _run_all(mp_sessions, sim_backend, vec_backend, n, spec)


@given(seed=st.integers(0, 999))
@_SETTINGS
def test_team_barrier(mp_sessions, sim_backend, vec_backend, seed):
    for n in (1, 4, 8, 16):
        _run_all(mp_sessions, sim_backend, vec_backend, n,
                  {"kind": "team_barrier", "seed": seed,
                   "dtype": np.dtype(np.int64)})


def test_disjoint_teams_concurrent_matches_sequential(mp_sessions):
    """Two teams running *different* collectives at the same time on one
    mp session produce exactly the bytes the same runs produce back to
    back — team-scoped scheduling adds no cross-talk."""
    from repro.serve.programs import run_collective_job

    session = mp_sessions.get(4)
    job_a = {"collective": "allreduce", "nelems": 96, "dtype": "long",
             "seed": 11}
    job_b = {"collective": "allgather", "nelems": 32, "dtype": "double",
             "seed": 12}

    ticket_a = session.submit(run_collective_job, [(job_a,)] * 2,
                              ranks=(0, 1))
    ticket_b = session.submit(run_collective_job, [(job_b,)] * 2,
                              ranks=(2, 3))
    concurrent = (session.wait(ticket_a), session.wait(ticket_b))

    sequential = tuple(
        session.wait(session.submit(run_collective_job, [(job,)] * 2,
                                    ranks=ranks))
        for job, ranks in ((job_a, (0, 1)), (job_b, (2, 3)))
    )
    assert concurrent == sequential

    # Placement independence: payloads are group-relative, so the same
    # jobs swapped onto the *other* ranks still return the same bytes.
    swapped = (
        session.wait(session.submit(run_collective_job, [(job_a,)] * 2,
                                    ranks=(2, 3))),
        session.wait(session.submit(run_collective_job, [(job_b,)] * 2,
                                    ranks=(0, 1))),
    )
    assert swapped == sequential
